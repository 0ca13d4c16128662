package sparse

import (
	"fmt"
	"runtime"
	"sync"
)

// MatMul returns the sparse product a·b using Gustavson's row-by-row
// algorithm with a pooled dense accumulator. It panics on
// inner-dimension mismatch. For an adjacency chain this computes meta
// path instance counts: (a·b)(i,j) = Σₖ a(i,k)·b(k,j) = number of
// two-hop walks.
func MatMul(a, b *CSR) *CSR {
	if a.cols != b.rows {
		panic(fmt.Sprintf("sparse: MatMul dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := &CSR{rows: a.rows, cols: b.cols, rowPtr: make([]int, a.rows+1)}
	rowLen := make([]int, a.rows)
	out.colIdx, out.val = mulRows(a, b, 0, a.rows, rowLen)
	for i, n := range rowLen {
		out.rowPtr[i+1] = out.rowPtr[i] + n
	}
	return out
}

// MatMulParallel computes a·b splitting row blocks across GOMAXPROCS
// workers. It returns the same result as MatMul; use it for large chains
// such as the post-attribute products in meta path P5/P6.
func MatMulParallel(a, b *CSR) *CSR {
	if a.cols != b.rows {
		panic(fmt.Sprintf("sparse: MatMulParallel dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	return rowBlocks(a.rows, b.cols, func(lo, hi int, rowLen []int) ([]int, []float64) {
		return mulRows(a, b, lo, hi, rowLen)
	})
}

// rowBlocks assembles a rows×cols matrix from a row kernel: kernel(lo,
// hi, rowLen) returns the concatenated entries of rows [lo, hi) and
// their per-row counts in rowLen (length hi-lo). Outputs of 64 rows or
// more are cut into one contiguous block per GOMAXPROCS worker and the
// blocks stitched in order; smaller ones are a single serial call.
func rowBlocks(rows, cols int, kernel func(lo, hi int, rowLen []int) (colIdx []int, val []float64)) *CSR {
	out := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	rowLen := make([]int, rows)
	if workers := runtime.GOMAXPROCS(0); workers <= 1 || rows < 64 {
		out.colIdx, out.val = kernel(0, rows, rowLen)
	} else {
		chunk := (rows + workers - 1) / workers
		type block struct {
			colIdx []int
			val    []float64
		}
		blocks := make([]block, (rows+chunk-1)/chunk)
		var wg sync.WaitGroup
		for w := range blocks {
			lo := w * chunk
			hi := min(lo+chunk, rows)
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				blocks[w].colIdx, blocks[w].val = kernel(lo, hi, rowLen[lo:hi])
			}(w, lo, hi)
		}
		wg.Wait()
		total := 0
		for _, blk := range blocks {
			total += len(blk.val)
		}
		out.colIdx = make([]int, 0, total)
		out.val = make([]float64, 0, total)
		for _, blk := range blocks {
			out.colIdx = append(out.colIdx, blk.colIdx...)
			out.val = append(out.val, blk.val...)
		}
	}
	for i, n := range rowLen {
		out.rowPtr[i+1] = out.rowPtr[i] + n
	}
	return out
}

// Hadamard returns the elementwise product a ⊙ b. Shapes must match. The
// result stores entries only where both inputs are non-zero — exactly the
// "both path patterns present" semantics of meta diagram stacking.
func Hadamard(a, b *CSR) *CSR {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("sparse: Hadamard shape mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := &CSR{rows: a.rows, cols: a.cols, rowPtr: make([]int, a.rows+1)}
	var colIdx []int
	var val []float64
	for i := 0; i < a.rows; i++ {
		ka, kb := a.rowPtr[i], b.rowPtr[i]
		endA, endB := a.rowPtr[i+1], b.rowPtr[i+1]
		for ka < endA && kb < endB {
			ja, jb := a.colIdx[ka], b.colIdx[kb]
			switch {
			case ja == jb:
				if v := a.val[ka] * b.val[kb]; v != 0 {
					colIdx = append(colIdx, ja)
					val = append(val, v)
				}
				ka++
				kb++
			case ja < jb:
				ka++
			default:
				kb++
			}
		}
		out.rowPtr[i+1] = len(val)
	}
	out.colIdx = colIdx
	out.val = val
	return out
}

// Add returns a + b. Shapes must match. Entries that cancel exactly are
// dropped.
func Add(a, b *CSR) *CSR {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("sparse: Add shape mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := &CSR{rows: a.rows, cols: a.cols, rowPtr: make([]int, a.rows+1)}
	var colIdx []int
	var val []float64
	push := func(j int, v float64) {
		if v != 0 {
			colIdx = append(colIdx, j)
			val = append(val, v)
		}
	}
	for i := 0; i < a.rows; i++ {
		ka, kb := a.rowPtr[i], b.rowPtr[i]
		endA, endB := a.rowPtr[i+1], b.rowPtr[i+1]
		for ka < endA || kb < endB {
			switch {
			case kb >= endB || (ka < endA && a.colIdx[ka] < b.colIdx[kb]):
				push(a.colIdx[ka], a.val[ka])
				ka++
			case ka >= endA || b.colIdx[kb] < a.colIdx[ka]:
				push(b.colIdx[kb], b.val[kb])
				kb++
			default:
				push(a.colIdx[ka], a.val[ka]+b.val[kb])
				ka++
				kb++
			}
		}
		out.rowPtr[i+1] = len(val)
	}
	out.colIdx = colIdx
	out.val = val
	return out
}

// MulVec returns the matrix-vector product m·x. It panics on dimension
// mismatch.
func (m *CSR) MulVec(x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch %dx%d · %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
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
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			out[m.colIdx[k]] += m.val[k] * xi
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
	for _, k := range a.colIdx {
		f += float64(b.rowPtr[k+1] - b.rowPtr[k])
	}
	return f
}
