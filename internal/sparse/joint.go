package sparse

import (
	"fmt"
	"math"
	"slices"
)

// JointFactors returns the joint factors of two-edge paths X→mₖ→Y
// stacked between the same endpoints, each given by its X×mₖ and Y×mₖ
// adjacency:
//
//	(A₁B₁ᵀ) ⊙ (A₂B₂ᵀ) ⊙ … = (A₁⊛A₂⊛…)·(B₁⊛B₂⊛…)ᵀ,
//
// ja = A₁⊛A₂⊛… (X × tuples) and jb = (B₁⊛B₂⊛…)ᵀ (tuples × Y), with ⊛ the
// row-wise Kronecker product over the middle tuples (m₁, m₂, …) that
// actually occur. It multiplies nothing: the caller hands both factors
// to Chain, alone or between the products around the stack, so the
// stack's X×Y count is never built unless Chain's exact-flop order
// builds it. The joint product spends one multiply-add per pair of
// instances, one from each stacked path, that meet in the same cell —
// about the result's size when a row rarely holds more than one middle
// per path — and none of the Aₖ·Bₖᵀ factors is built.
//
// It reports false, returning no factors, when that is not the cheaper
// form: the joint factors' entry counts plus the joint product's exact
// Gustavson flops are compared with the summed flops of the separate
// products. The last join is decided from its tuple counts before either
// of its factors is built; a stack of three or more builds its earlier
// joins first. The two forms add different partial sums, so they agree
// bit for bit exactly when no sum rounds — integer-valued factors with
// results below 2⁵³, which every count matrix is. It panics on a shape
// mismatch. Its factors are adjacencies; a block among them is read in
// its compressed form (CSR.compressed).
func JointFactors(as, bts []*CSR) (ja, jb *CSR, ok bool) {
	if len(as) == 0 || len(as) != len(bts) {
		panic(fmt.Sprintf("sparse: JointFactors of %d left and %d right factors", len(as), len(bts)))
	}
	var separate float64
	as, bts = slices.Clone(as), slices.Clone(bts)
	for k := range as {
		as[k], bts[k] = as[k].compressed(), bts[k].compressed()
		if as[k].cols != bts[k].cols || as[k].rows != as[0].rows || bts[k].rows != bts[0].rows {
			panic(fmt.Sprintf("sparse: JointFactors shape mismatch at pair %d: %dx%d · (%dx%d)ᵀ in a %dx%d stack",
				k, as[k].rows, as[k].cols, bts[k].rows, bts[k].cols, as[0].rows, bts[0].rows))
		}
		separate += spgemmFlopsT(as[k], bts[k])
	}
	if len(as) == 1 {
		return nil, nil, false // one path has no joint form
	}
	ja, jbT := as[0], bts[0]
	var joint float64
	for k := 1; k < len(as); k++ {
		if ja.cols > 0 && as[k].cols > math.MaxInt/ja.cols {
			return nil, nil, false // joint tuples would not fit an int key
		}
		joint += rowKronEntries(ja, as[k]) + rowKronEntries(jbT, bts[k])
		if joint >= separate {
			return nil, nil, false
		}
		tuples, aCols := jointTuples(ja, as[k])
		if k == len(as)-1 {
			var flops float64
			for t, n := range kronColCounts(jbT, bts[k], tuples) {
				flops += aCols[t] * n
			}
			if joint+flops >= separate {
				return nil, nil, false
			}
		}
		ja, jbT = kron(ja, as[k], tuples), kron(jbT, bts[k], tuples)
	}
	return ja, jbT.T(), true
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
// the row-wise Kronecker product x₁⊛x₂ before any tuple is dropped.
func rowKronEntries(x1, x2 *CSR) float64 {
	var n float64
	for i := 0; i < x1.rows; i++ {
		n += float64(x1.rowPtr[i+1]-x1.rowPtr[i]) * float64(x2.rowPtr[i+1]-x2.rowPtr[i])
	}
	return n
}

// jointTuples numbers the middle tuples (p, q) some row of a₁⊛a₂ stores,
// as p·a₂.cols+q in lexicographic order, and returns beside them how many
// rows store each — the column lengths of a₁⊛a₂. A row stores a tuple
// once, so the run lengths of the sorted tuples are those counts.
func jointTuples(a1, a2 *CSR) (tuples []int, cols []float64) {
	width := a2.cols
	all := make([]int, 0, int(rowKronEntries(a1, a2)))
	for i := 0; i < a1.rows; i++ {
		for _, p := range a1.colIdx[a1.rowPtr[i]:a1.rowPtr[i+1]] {
			for _, q := range a2.colIdx[a2.rowPtr[i]:a2.rowPtr[i+1]] {
				all = append(all, p*width+q)
			}
		}
	}
	slices.Sort(all)
	tuples = all[:0]
	for k := 0; k < len(all); {
		run := k + 1
		for run < len(all) && all[run] == all[k] {
			run++
		}
		tuples = append(tuples, all[k])
		cols = append(cols, float64(run-k))
		k = run
	}
	return tuples, cols
}

// kronColCounts returns the column lengths kron(x₁, x₂, tuples) would
// have, without building it.
func kronColCounts(x1, x2 *CSR, tuples []int) []float64 {
	width := x2.cols
	cols := make([]float64, len(tuples))
	for i := 0; i < x1.rows; i++ {
		for _, p := range x1.colIdx[x1.rowPtr[i]:x1.rowPtr[i+1]] {
			for _, q := range x2.colIdx[x2.rowPtr[i]:x2.rowPtr[i+1]] {
				if t, ok := slices.BinarySearch(tuples, p*width+q); ok {
					cols[t]++
				}
			}
		}
	}
	return cols
}

// kron returns the row-wise Kronecker product x₁⊛x₂ over the numbered
// tuples: row i holds x₁(i,p)·x₂(i,q) at the column numbering (p, q).
// Tuples the numbering lacks are dropped — on the b side of a joint
// product they would meet nothing.
func kron(x1, x2 *CSR, tuples []int) *CSR {
	width := x2.cols
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
