package sparse

import (
	"fmt"
	"math"
	"slices"
)

// MatMulHadamard evaluates (as[0]·bts[0]ᵀ) ⊙ (as[1]·bts[1]ᵀ) ⊙ … — the
// instance count of two-edge paths X→mₖ→Y stacked between the same
// endpoints, each given by its X×mₖ and Y×mₖ adjacency — as ONE product
// through the joint middle index,
//
//	(A₁B₁) ⊙ (A₂B₂) = (A₁⊛A₂)·(B₁⊛B₂),
//
// with ⊛ the row-wise (on the A side) and column-wise (on the B side)
// Kronecker product over the middle tuples (m₁, m₂) that actually occur.
// The B side arrives and stays transposed while it is joined, so both
// sides are joined row by row. The joint product spends one multiply-add
// per pair of instances, one from each stacked path, that meet in the
// same cell — about the result's size when a row rarely holds more than
// one middle per path — and none of the Aₖ·Bₖ factors is built.
//
// It reports false, having multiplied and transposed nothing, when that
// is not the cheaper form: the joint factors' entry counts plus the
// joint product's exact Gustavson flops are compared with the summed
// flops of the separate products, the way Chain orders a sequence. The
// two forms add different partial sums, so they agree bit for bit
// exactly when no sum rounds — integer-valued factors with results below
// 2⁵³, which every count matrix is. It panics on a shape mismatch.
func MatMulHadamard(as, bts []*CSR) (*CSR, bool) {
	if len(as) == 0 || len(as) != len(bts) {
		panic(fmt.Sprintf("sparse: MatMulHadamard of %d left and %d right factors", len(as), len(bts)))
	}
	var separate float64
	for k := range as {
		if as[k].cols != bts[k].cols || as[k].rows != as[0].rows || bts[k].rows != bts[0].rows {
			panic(fmt.Sprintf("sparse: MatMulHadamard shape mismatch at pair %d: %dx%d · (%dx%d)ᵀ in a %dx%d stack",
				k, as[k].rows, as[k].cols, bts[k].rows, bts[k].cols, as[0].rows, bts[0].rows))
		}
		separate += spgemmFlopsT(as[k], bts[k])
	}
	ja, jbT := as[0], bts[0]
	var joint float64
	for k := 1; k < len(as); k++ {
		if ja.cols > 0 && as[k].cols > math.MaxInt/ja.cols {
			return nil, false // joint tuples would not fit an int key
		}
		joint += rowKronEntries(ja, as[k]) + rowKronEntries(jbT, bts[k])
		if joint >= separate {
			return nil, false
		}
		ja, jbT = rowKron(ja, as[k], jbT, bts[k])
	}
	flops := spgemmFlopsT(ja, jbT)
	if joint+flops >= separate {
		return nil, false
	}
	mSpgemmFlops.Add(int64(flops))
	return MatMulParallel(ja, jbT.T()), true
}

// spgemmFlopsT returns spgemmFlops(a, bT.T()) without the transpose:
// Σₘ |a(·,m)|·|bT(·,m)| from one pass over each side's column indices.
func spgemmFlopsT(a, bT *CSR) float64 {
	perMid := make([]float64, bT.cols)
	for _, m := range bT.colIdx {
		perMid[m]++
	}
	var f float64
	for _, m := range a.colIdx {
		f += perMid[m]
	}
	return f
}

// rowKronEntries returns Σᵢ |x₁(i,·)|·|x₂(i,·)|, the stored entries of
// the row-wise Kronecker product x₁⊛x₂.
func rowKronEntries(x1, x2 *CSR) float64 {
	var n float64
	for i := 0; i < x1.rows; i++ {
		n += float64(x1.rowPtr[i+1]-x1.rowPtr[i]) * float64(x2.rowPtr[i+1]-x2.rowPtr[i])
	}
	return n
}

// rowKron returns the row-wise Kronecker products a₁⊛a₂ and b₁⊛b₂ over
// one compact joint column space: row i of x₁⊛x₂ holds x₁(i,p)·x₂(i,q)
// at the column numbering tuple (p, q), and the tuples numbered are
// those some row of the a side stores, in lexicographic order. Tuples
// only the b side stores are dropped — in (a₁⊛a₂)·(b₁⊛b₂)ᵀ they would
// meet nothing.
func rowKron(a1, a2, b1, b2 *CSR) (a, b *CSR) {
	width := a2.cols
	tuples := make([]int, 0, int(rowKronEntries(a1, a2)))
	for i := 0; i < a1.rows; i++ {
		for _, p := range a1.colIdx[a1.rowPtr[i]:a1.rowPtr[i+1]] {
			for _, q := range a2.colIdx[a2.rowPtr[i]:a2.rowPtr[i+1]] {
				tuples = append(tuples, p*width+q)
			}
		}
	}
	slices.Sort(tuples)
	tuples = slices.Compact(tuples)
	kron := func(x1, x2 *CSR) *CSR {
		out := &CSR{rows: x1.rows, cols: len(tuples), rowPtr: make([]int, x1.rows+1)}
		bound := int(rowKronEntries(x1, x2))
		colIdx, val := make([]int, bound), make([]float64, bound)
		n := 0
		for i := 0; i < x1.rows; i++ {
			// p ascends outside q, so the tuple numbers of a row ascend.
			for kp := x1.rowPtr[i]; kp < x1.rowPtr[i+1]; kp++ {
				for kq := x2.rowPtr[i]; kq < x2.rowPtr[i+1]; kq++ {
					if t, ok := slices.BinarySearch(tuples, x1.colIdx[kp]*width+x2.colIdx[kq]); ok {
						colIdx[n], val[n] = t, x1.val[kp]*x2.val[kq]
						n++
					}
				}
			}
			out.rowPtr[i+1] = n
		}
		out.colIdx, out.val = colIdx[:n], val[:n]
		return out
	}
	return kron(a1, a2), kron(b1, b2)
}
