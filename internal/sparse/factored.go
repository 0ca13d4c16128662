package sparse

import (
	"fmt"
	"math/bits"
)

// The kernels below read a stacked count (x·y) ⊙ d through its factors,
// never building the product: MatMulAt one cell, MatMulMarginals the
// row and column sums, and AnchorTerms one anchor's share of those sums
// when x = pre·A.
// Hadamard(MatMulParallel(x, y), d) stays the general path and is their
// reference.
//
// They add the product's terms in another order than a materialised
// evaluation does (Chain may associate a three-factor product from the
// right; Hadamard multiplies after the sum, the marginals sum after the
// multiply). The results are nevertheless the same floats, not close
// ones, whenever no partial sum rounds — and none does on a count:
// adjacencies and the anchor matrix are Binarize'd, every count is a sum
// of products of those, so every term and every partial sum is a
// non-negative integer far below 2⁵³, which float64 adds exactly in any
// order. JointFactors rests on the same argument.

// MatMulAt returns (x·y)(i, j) = Σₐ x(i,a)·y(a,j): one position probe
// into y (CSR.position, as At; an index into a block) per entry of x's
// row i. It costs the row, not the product — a thin left factor makes it
// a handful of probes. It panics on an inner-dimension mismatch or an
// index out of range.
func MatMulAt(x, y *CSR, i, j int) float64 {
	if x.cols != y.rows {
		panic(fmt.Sprintf("sparse: MatMulAt dimension mismatch %dx%d · %dx%d", x.rows, x.cols, y.rows, y.cols))
	}
	if i < 0 || i >= x.rows || j < 0 || j >= y.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, x.rows, y.cols))
	}
	var s float64
	var buf rowBuf
	xc, xv := x.rowOf(i, &buf)
	for k, a := range xc {
		if y.block != nil {
			if v := y.block[a*y.cols+j]; v != 0 {
				s += xv[k] * float64(v)
			}
		} else if p := y.position(a, j); p >= 0 {
			s += xv[k] * y.val[p]
		}
	}
	return s
}

// MatMulMarginals returns, for every d of ds, the row sums and the
// column sums of (x·y) ⊙ d — what RowSums and ColSums of
// Hadamard(MatMul(x, y), d) return — from one walk of the product's
// terms: each row of x·y is summed once (gemmWorkspace.sumRow, nothing
// emitted) and intersected with that row of every d: by indexing a
// block d, or probing d's rank index, from the row's columns, popped
// from its column bits, or, where a compressed d has no index or the
// shorter row, by testing d's entries against those bits. Every regime
// reads the cells in column order, so all of them add the same terms in
// the same order.
// The walk is serial, so the sums do not depend on GOMAXPROCS; callers
// with several products run them side by side. It panics on a shape
// mismatch.
func MatMulMarginals(x, y *CSR, ds []*CSR) (rowSums, colSums [][]float64) {
	if x.cols != y.rows {
		panic(fmt.Sprintf("sparse: MatMulMarginals dimension mismatch %dx%d · %dx%d", x.rows, x.cols, y.rows, y.cols))
	}
	rowSums, colSums = make([][]float64, len(ds)), make([][]float64, len(ds))
	ranks := make([]*rankIndex, len(ds))
	for k, d := range ds {
		if d.rows != x.rows || d.cols != y.cols {
			panic(fmt.Sprintf("sparse: MatMulMarginals shape mismatch at stack %d: %dx%d on a %dx%d product", k, d.rows, d.cols, x.rows, y.cols))
		}
		rowSums[k], colSums[k], ranks[k] = make([]float64, x.rows), make([]float64, y.cols), d.rank()
	}
	if len(ds) == 0 {
		return rowSums, colSums
	}
	w := getWorkspace(y.cols)
	defer putWorkspace(w)
	sum, set := w.sum, w.bits
	// touched takes each row's columns, popped from its bits once for
	// every d to walk; the bits stay set for the regime that tests them,
	// and the row's cells and words are zeroed after the last d.
	touched := make([]int, 0, y.cols)
	for i := 0; i < x.rows; i++ {
		lo, hi := w.sumRow(x, y, i)
		if lo > hi {
			continue
		}
		touched = touched[:0]
		for wi := lo; wi <= hi; wi++ {
			for word, base := set[wi], wi<<6; word != 0; word &= word - 1 {
				touched = append(touched, base+bits.TrailingZeros64(word))
			}
		}
		for k, d := range ds {
			cs, rs := colSums[k], 0.0
			switch r := ranks[k]; {
			case d.block != nil:
				// Indexed at the touched columns, which are never more
				// than the row's cells.
				dr := d.blockRow(i)
				for _, j := range touched {
					if dv := dr[j]; dv != 0 {
						v := sum[j] * float64(dv)
						rs += v
						cs[j] += v
					}
				}
			case r != nil && len(touched) < d.rowPtr[i+1]-d.rowPtr[i]:
				p := d.rowPtr[i]
				for _, j := range touched {
					if off := r.offset(i, j); off >= 0 {
						v := sum[j] * d.val[p+off]
						rs += v
						cs[j] += v
					}
				}
			default:
				for p := d.rowPtr[i]; p < d.rowPtr[i+1]; p++ {
					if j := d.colIdx[p]; set[j>>6]&(1<<(j&63)) != 0 {
						v := sum[j] * d.val[p]
						rs += v
						cs[j] += v
					}
				}
			}
			rowSums[k][i] = rs
		}
		for _, j := range touched {
			sum[j] = 0
		}
		clear(set[lo : hi+1])
	}
	mMarginalFlops.Add(int64(spgemmFlops(x, y)))
	return rowSums, colSums
}

// AnchorTerms writes one anchor's share of the marginals of every
// stacking (pre·A·post) ⊙ d, d in ds, where A is a 0/1 anchor matrix
// holding (a1, a2). The count is linear in A, so its row and column sums
// are sums over A's entries of
//
//	row terms    pre(u,a1)·Σ_v post(a2,v)·d(u,v)   for u in pre's column a1,
//	column terms post(a2,v)·Σ_u pre(u,a1)·d(u,v)   for v in post's row a2,
//
// which depend on the anchor alone. preT is pre transposed, so pre's
// column a1 is preT's row a1. For each d in turn, out receives the row
// terms in the order of preT's row a1 and then the column terms in the
// order of post's row a2 — values only; the positions are those two
// rows — so it must have len(ds)·(|preT row a1| + |post row a2|) slots.
// Each d is probed at every (u, v) of the block, by indexing a block d,
// through its rank index where it has one and by merging d's row with
// post's otherwise. It panics on a shape mismatch.
func AnchorTerms(preT, post *CSR, ds []*CSR, a1, a2 int, out []float64) {
	if a1 < 0 || a1 >= preT.rows || a2 < 0 || a2 >= post.rows {
		panic(fmt.Sprintf("sparse: AnchorTerms anchor (%d,%d) out of range %dx%d", a1, a2, preT.rows, post.rows))
	}
	var bu, bv rowBuf
	us, pu := preT.rowOf(a1, &bu)
	vs, pv := post.rowOf(a2, &bv)
	n := len(us) + len(vs)
	if len(out) != len(ds)*n {
		panic(fmt.Sprintf("sparse: AnchorTerms out has %d slots, want %d", len(out), len(ds)*n))
	}
	clear(out)
	for k, d := range ds {
		if d.rows != preT.cols || d.cols != post.cols {
			panic(fmt.Sprintf("sparse: AnchorTerms shape mismatch at stack %d: %dx%d on a %dx%d product", k, d.rows, d.cols, preT.cols, post.cols))
		}
		rt, ct := out[k*n:k*n+len(us)], out[k*n+len(us):(k+1)*n]
		r := d.rank()
		for a, u := range us {
			var s float64
			if d.block != nil {
				dr := d.blockRow(u)
				for b, v := range vs {
					if dv := dr[v]; dv != 0 {
						s += pv[b] * float64(dv)
						ct[b] += pu[a] * float64(dv)
					}
				}
			} else if r != nil {
				lo := d.rowPtr[u]
				for b, v := range vs {
					if off := r.offset(u, v); off >= 0 {
						s += pv[b] * d.val[lo+off]
						ct[b] += pu[a] * d.val[lo+off]
					}
				}
			} else {
				for p, b := d.rowPtr[u], 0; p < d.rowPtr[u+1] && b < len(vs); {
					switch j := d.colIdx[p]; {
					case j < vs[b]:
						p++
					case j > vs[b]:
						b++
					default:
						s += pv[b] * d.val[p]
						ct[b] += pu[a] * d.val[p]
						p++
						b++
					}
				}
			}
			rt[a] = pu[a] * s
		}
		for b := range ct {
			ct[b] *= pv[b]
		}
	}
}
