// Package sparse implements compressed sparse row (CSR) matrices and the
// operations needed for inter-network meta path and meta diagram instance
// counting: sparse general matrix-matrix products (SpGEMM), Hadamard
// (elementwise) products, transposes, and row/column sums.
//
// Meta path counting reduces to chains of sparse products over typed
// adjacency matrices (Section III-B of the paper); meta diagram counting
// adds Hadamard products at the shared "join" node types. All matrices
// hold float64 counts; adjacency matrices are 0/1 valued.
package sparse

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// CSR is an immutable sparse matrix in compressed sparse row format.
// Construct one with a Builder, FromDense, or an operation on existing
// matrices. Column indices within each row are strictly increasing and
// stored values are never explicit zeros. A CSR must not be copied by
// value: it carries the once-built rank index (rank.go).
type CSR struct {
	rows, cols int
	rowPtr     []int     // len rows+1
	colIdx     []int     // len nnz
	val        []float64 // len nnz

	rankOnce sync.Once
	rankIdx  atomic.Pointer[rankIndex] // derived state; see rank
}

// Dims returns the number of rows and columns.
func (m *CSR) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored (non-zero) entries.
func (m *CSR) NNZ() int { return len(m.val) }

// At returns the value at (i, j), zero when no entry is stored: one
// position probe — O(1) on a matrix a probing kernel has given a rank
// index (rank.go), a binary search within row i otherwise.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	if k := m.position(i, j); k >= 0 {
		return m.val[k]
	}
	return 0
}

// Row calls fn(j, v) for every stored entry in row i in increasing column
// order.
func (m *CSR) Row(i int, fn func(j int, v float64)) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("sparse: row %d out of range %d", i, m.rows))
	}
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.val[k])
	}
}

// RowSlice returns zero-copy views of row i's column indices and
// values, in increasing column order. The slices alias internal storage
// and must not be mutated.
func (m *CSR) RowSlice(i int) (colIdx []int, val []float64) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("sparse: row %d out of range %d", i, m.rows))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("sparse: row %d out of range %d", i, m.rows))
	}
	return m.rowPtr[i+1] - m.rowPtr[i]
}

// Iterate calls fn(i, j, v) for every stored entry in row-major order.
func (m *CSR) Iterate(fn func(i, j int, v float64)) {
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			fn(i, m.colIdx[k], m.val[k])
		}
	}
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	out := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: make([]int, len(m.rowPtr)),
		colIdx: make([]int, len(m.colIdx)),
		val:    make([]float64, len(m.val)),
	}
	copy(out.rowPtr, m.rowPtr)
	copy(out.colIdx, m.colIdx)
	copy(out.val, m.val)
	return out
}

// T returns the transpose, built in O(nnz + rows + cols).
func (m *CSR) T() *CSR {
	out := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, len(m.colIdx)),
		val:    make([]float64, len(m.val)),
	}
	// Count entries per output row (= input column).
	for _, j := range m.colIdx {
		out.rowPtr[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		out.rowPtr[j+1] += out.rowPtr[j]
	}
	next := make([]int, m.cols)
	copy(next, out.rowPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.colIdx[k]
			p := next[j]
			out.colIdx[p] = i
			out.val[p] = m.val[k]
			next[j]++
		}
	}
	return out
}

// Scale returns alpha·m as a new matrix. Scaling by zero returns an empty
// matrix of the same shape.
func (m *CSR) Scale(alpha float64) *CSR {
	if alpha == 0 {
		return Zero(m.rows, m.cols)
	}
	out := m.Clone()
	for i := range out.val {
		out.val[i] *= alpha
	}
	return out
}

// RowSums returns the vector of per-row entry sums. For a meta diagram
// count matrix this is |P(uᵢ, ·)| in Definition 6.
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k]
		}
		out[i] = s
	}
	return out
}

// ColSums returns the vector of per-column entry sums, |P(·, uⱼ)| in
// Definition 6.
func (m *CSR) ColSums() []float64 {
	out := make([]float64, m.cols)
	for k, j := range m.colIdx {
		out[j] += m.val[k]
	}
	return out
}

// Sum returns the sum of all stored values.
func (m *CSR) Sum() float64 {
	var s float64
	for _, v := range m.val {
		s += v
	}
	return s
}

// Binarize returns a copy with every stored value replaced by 1. Used to
// convert weighted count matrices back into 0/1 adjacency.
func (m *CSR) Binarize() *CSR {
	out := m.Clone()
	for i := range out.val {
		out.val[i] = 1
	}
	return out
}

// Zero returns an empty r×c matrix with no stored entries.
func Zero(r, c int) *CSR {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("sparse: Zero negative dimension %dx%d", r, c))
	}
	return &CSR{rows: r, cols: c, rowPtr: make([]int, r+1)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	return b.Build()
}

// Density returns nnz / (rows·cols), or 0 for an empty shape.
func (m *CSR) Density() float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.rows) * float64(m.cols))
}

// Equal reports whether two matrices have identical shape and stored
// entries.
func (m *CSR) Equal(b *CSR) bool {
	if m.rows != b.rows || m.cols != b.cols || len(m.val) != len(b.val) {
		return false
	}
	for i := range m.rowPtr {
		if m.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for k := range m.val {
		if m.colIdx[k] != b.colIdx[k] || m.val[k] != b.val[k] {
			return false
		}
	}
	return true
}

// String summarizes the matrix shape and density.
func (m *CSR) String() string {
	return fmt.Sprintf("CSR(%dx%d, nnz=%d)", m.rows, m.cols, m.NNZ())
}
