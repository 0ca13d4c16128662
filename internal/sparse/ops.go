package sparse

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// MatMul returns the sparse product a·b using Gustavson's row-by-row
// algorithm with a pooled dense accumulator. It panics on
// inner-dimension mismatch. For an adjacency chain this computes meta
// path instance counts: (a·b)(i,j) = Σₖ a(i,k)·b(k,j) = number of
// two-hop walks.
func MatMul(a, b *CSR) *CSR { return matMul(a, b, 1) }

// MatMulParallel computes a·b splitting row blocks across GOMAXPROCS
// workers. It returns the same result as MatMul; use it for large chains
// such as the post-attribute products in meta path P5/P6.
func MatMulParallel(a, b *CSR) *CSR { return matMul(a, b, runtime.GOMAXPROCS(0)) }

// matMul is the two-pass product behind MatMul and MatMulParallel. The
// symbolic pass counts each row's distinct columns into rowPtr, one
// prefix sum turns the counts into offsets and sizes colIdx and val
// exactly, and the numeric pass has every row block write its rows
// straight into their final slots from its own goroutine — the output is
// allocated once and written once, with no per-block slices and no
// stitch copy. Only a product in which some sum cancelled to exactly
// zero is touched again, to squeeze those entries out.
//
// A product of two counts whose symbolic pass meets BlockShape is built
// in the block layout instead (blockProduct), unless some cell fails
// BlockCell; then it is built compressed after all.
func matMul(a, b *CSR, workers int) *CSR {
	if a.cols != b.rows {
		panic(fmt.Sprintf("sparse: MatMul dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := &CSR{rows: a.rows, cols: b.cols, rowPtr: make([]int, a.rows+1)}
	chunk := blockRows(a.rows, workers)
	eachBlock(a.rows, chunk, func(lo, hi int) {
		w := getWorkspace(b.cols)
		defer putWorkspace(w)
		for i := lo; i < hi; i++ {
			out.rowPtr[i+1] = w.countRow(a, b, i)
		}
	})
	for i := 0; i < a.rows; i++ {
		out.rowPtr[i+1] += out.rowPtr[i]
	}
	if BlockShape(a.rows, b.cols, out.rowPtr[a.rows]) && integral(a) && integral(b) {
		if blk := blockProduct(a, b, chunk); blk != nil {
			return blk
		}
	}
	out.colIdx = make([]int, out.rowPtr[a.rows])
	out.val = make([]float64, out.rowPtr[a.rows])
	var zeros atomic.Bool
	eachBlock(a.rows, chunk, func(lo, hi int) {
		w := getWorkspace(b.cols)
		defer putWorkspace(w)
		for i := lo; i < hi; i++ {
			p, q := out.rowPtr[i], out.rowPtr[i+1]
			if w.mulRow(a, b, i, out.colIdx[p:q], out.val[p:q]) {
				zeros.Store(true)
			}
		}
	})
	if zeros.Load() {
		out.dropZeros()
	}
	return out
}

// integral reports whether every stored value of m is a non-negative
// integer, as every count and every block holds: the only operands whose
// product can fit a block.
func integral(m *CSR) bool {
	for _, v := range m.val {
		if v < 0 || v != math.Trunc(v) {
			return false
		}
	}
	return true
}

// blockProduct is matMul's numeric pass in the block layout: every row
// block writes its rows' cells straight into the output's bytes
// (gemmWorkspace.denseRow). It returns nil once some cell fails
// BlockCell, which every block stops at.
func blockProduct(a, b *CSR, chunk int) *CSR {
	out := &CSR{rows: a.rows, cols: b.cols, block: make([]uint8, a.rows*b.cols), rowNNZ: make([]int, a.rows)}
	var bad atomic.Bool
	eachBlock(a.rows, chunk, func(lo, hi int) {
		w := getWorkspace(b.cols)
		defer putWorkspace(w)
		for i := lo; i < hi && !bad.Load(); i++ {
			var ok bool
			if out.rowNNZ[i], ok = w.denseRow(a, b, i, out.blockRow(i)); !ok {
				bad.Store(true)
				return
			}
		}
	})
	if bad.Load() {
		return nil
	}
	for _, n := range out.rowNNZ {
		out.nnz += n
	}
	mBlockProducts.Inc()
	return out
}

// blockRows returns how many rows each concurrent block of a rows-row
// kernel takes: all of them for one worker or fewer than 64 rows,
// otherwise an even share per worker.
func blockRows(rows, workers int) int {
	if workers <= 1 || rows < 64 {
		return rows
	}
	return (rows + workers - 1) / workers
}

// eachBlock runs fn over [0, rows) in contiguous blocks of chunk rows —
// inline when one block covers everything, otherwise one goroutine per
// block — and returns when every block is done.
func eachBlock(rows, chunk int, fn func(lo, hi int)) {
	if chunk >= rows {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, rows))
	}
	wg.Wait()
}

// dropZeros squeezes stored zeros out of m in place, keeping row and
// column order.
func (m *CSR) dropZeros() {
	n, lo := 0, 0
	for i := 0; i < m.rows; i++ {
		hi := m.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			if m.val[k] != 0 {
				m.colIdx[n], m.val[n] = m.colIdx[k], m.val[k]
				n++
			}
		}
		m.rowPtr[i+1], lo = n, hi
	}
	m.colIdx, m.val = m.colIdx[:n], m.val[:n]
}

// Hadamard returns the elementwise product a ⊙ b. Shapes must match. The
// result stores entries only where both inputs are non-zero — exactly the
// "both path patterns present" semantics of meta diagram stacking. The
// output is sized once from Σᵢ min(|aᵢ|, |bᵢ|). Where the longer row of a
// pair belongs to a matrix with a rank index, each entry of the shorter
// row is one O(1) probe into it, so stacking a sparse count on a dense
// one costs the sparse side; any other pair is intersected by a
// two-pointer merge. A longer row of a block is probed by indexing it.
// Products commute, so every regime stores the same floats. The result
// is compressed. This is the general stacking: the shared attribute
// layer and any diagram off the library's anchor shape go through it,
// while a fold's anchor-path stackings are read through their factors
// (factored.go) and never built.
func Hadamard(a, b *CSR) *CSR {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("sparse: Hadamard shape mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := &CSR{rows: a.rows, cols: a.cols, rowPtr: make([]int, a.rows+1)}
	bound := 0
	for i := 0; i < a.rows; i++ {
		bound += min(a.RowNNZ(i), b.RowNNZ(i))
	}
	colIdx, val := make([]int, bound), make([]float64, bound)
	n := 0
	var merged, ranked, indexed int64
	var ba, bb rowBuf
	for i := 0; i < a.rows; i++ {
		// The shorter row probes, the longer one is probed.
		short, long, bs := a, b, &ba
		if b.RowNNZ(i) < a.RowNNZ(i) {
			short, long, bs = b, a, &bb
		}
		sc, sv := short.rowOf(i, bs)
		if len(sc) == 0 {
			out.rowPtr[i+1] = n
			continue
		}
		if long.block != nil {
			indexed++
			lr := long.blockRow(i)
			for ks, j := range sc {
				if x := lr[j]; x != 0 {
					if v := sv[ks] * float64(x); v != 0 {
						colIdx[n], val[n] = j, v
						n++
					}
				}
			}
		} else if r := long.rank(); r != nil {
			ranked++
			_, lv := long.rowOf(i, nil)
			for ks, j := range sc {
				if k := r.offset(i, j); k >= 0 {
					if v := sv[ks] * lv[k]; v != 0 {
						colIdx[n], val[n] = j, v
						n++
					}
				}
			}
		} else {
			merged++
			ac, av := a.rowOf(i, &ba)
			bc, bv := b.rowOf(i, &bb)
			for ka, kb := 0, 0; ka < len(ac) && kb < len(bc); {
				switch ja, jb := ac[ka], bc[kb]; {
				case ja == jb:
					if v := av[ka] * bv[kb]; v != 0 {
						colIdx[n], val[n] = ja, v
						n++
					}
					ka++
					kb++
				case ja < jb:
					ka++
				default:
					kb++
				}
			}
		}
		out.rowPtr[i+1] = n
	}
	out.colIdx, out.val = colIdx[:n], val[:n]
	mHadamardMerge.Add(merged)
	mHadamardRank.Add(ranked)
	mHadamardBlock.Add(indexed)
	return out
}

// Add returns a + b. Shapes must match. Entries that cancel exactly are
// dropped. Like matMul it runs two passes — count each row's merged
// columns, size the output once, write — and squeezes zeros out only
// when some sum did cancel.
func Add(a, b *CSR) *CSR {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("sparse: Add shape mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := &CSR{rows: a.rows, cols: a.cols, rowPtr: make([]int, a.rows+1)}
	var ba, bb rowBuf
	for i := 0; i < a.rows; i++ {
		ac, _ := a.rowOf(i, &ba)
		bc, _ := b.rowOf(i, &bb)
		shared := 0
		for ka, kb := 0, 0; ka < len(ac) && kb < len(bc); {
			switch ja, jb := ac[ka], bc[kb]; {
			case ja == jb:
				shared++
				ka++
				kb++
			case ja < jb:
				ka++
			default:
				kb++
			}
		}
		out.rowPtr[i+1] = out.rowPtr[i] + len(ac) + len(bc) - shared
	}
	colIdx, val := make([]int, out.rowPtr[a.rows]), make([]float64, out.rowPtr[a.rows])
	n, zeros := 0, false
	for i := 0; i < a.rows; i++ {
		ac, av := a.rowOf(i, &ba)
		bc, bv := b.rowOf(i, &bb)
		for ka, kb := 0, 0; ka < len(ac) || kb < len(bc); {
			switch {
			case kb >= len(bc) || (ka < len(ac) && ac[ka] < bc[kb]):
				colIdx[n], val[n] = ac[ka], av[ka]
				ka++
			case ka >= len(ac) || bc[kb] < ac[ka]:
				colIdx[n], val[n] = bc[kb], bv[kb]
				kb++
			default:
				colIdx[n], val[n] = ac[ka], av[ka]+bv[kb]
				ka++
				kb++
			}
			zeros = zeros || val[n] == 0
			n++
		}
	}
	out.colIdx, out.val = colIdx, val
	if zeros {
		out.dropZeros()
	}
	return out
}

// MulVec returns the matrix-vector product m·x. It panics on dimension
// mismatch.
func (m *CSR) MulVec(x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch %dx%d · %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	var buf rowBuf
	for i := 0; i < m.rows; i++ {
		var s float64
		cols, vals := m.rowOf(i, &buf)
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		out[i] = s
	}
	return out
}

// TMulVec returns mᵀ·x without materializing the transpose.
func (m *CSR) TMulVec(x []float64) []float64 {
	if m.rows != len(x) {
		panic(fmt.Sprintf("sparse: TMulVec dimension mismatch %dx%d ᵀ· %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.cols)
	var buf rowBuf
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		cols, vals := m.rowOf(i, &buf)
		for k, j := range cols {
			out[j] += vals[k] * xi
		}
	}
	return out
}

// Chain multiplies a sequence of matrices: Chain(a, b, c) computes
// a·b·c. It panics if the sequence is empty or any inner dimension
// mismatches. Rather than associating blindly left to right, each step
// multiplies the adjacent pair with the smallest exact Gustavson flop
// count (Σ over stored entries (i,k) of the left factor of the right
// factor's row-k length), so a cheap attribute product collapses before
// it is dragged through an expensive follow product. Products are
// evaluated with MatMulParallel.
func Chain(ms ...*CSR) *CSR {
	if len(ms) == 0 {
		panic("sparse: Chain of zero matrices")
	}
	for i := 0; i+1 < len(ms); i++ {
		if ms[i].cols != ms[i+1].rows {
			panic(fmt.Sprintf("sparse: Chain dimension mismatch %dx%d · %dx%d at position %d",
				ms[i].rows, ms[i].cols, ms[i+1].rows, ms[i+1].cols, i))
		}
	}
	work := make([]*CSR, len(ms))
	copy(work, ms)
	for len(work) > 1 {
		best := 0
		bestCost := spgemmFlops(work[0], work[1])
		for i := 1; i+1 < len(work); i++ {
			if c := spgemmFlops(work[i], work[i+1]); c < bestCost {
				best, bestCost = i, c
			}
		}
		// The chosen product's flop count was already computed for the
		// association scan — folding it into the process counter costs
		// one atomic add, no extra matrix pass.
		mSpgemmFlops.Add(int64(bestCost))
		prod := MatMulParallel(work[best], work[best+1])
		work[best] = prod
		work = append(work[:best+1], work[best+2:]...)
	}
	return work[0]
}

// spgemmFlops returns the exact multiply-add count Gustavson SpGEMM
// performs for a·b — the row-length dot product Σₖ |a(·,k)|·|b(k,·)|,
// evaluated as one pass over a's stored column indices.
func spgemmFlops(a, b *CSR) float64 {
	var f float64
	var buf rowBuf
	for i := 0; i < a.rows; i++ {
		cols, _ := a.rowOf(i, &buf)
		for _, k := range cols {
			f += float64(b.RowNNZ(k))
		}
	}
	return f
}
