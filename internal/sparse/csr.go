// Package sparse implements compressed sparse row (CSR) matrices and the
// operations needed for inter-network meta path and meta diagram instance
// counting: sparse general matrix-matrix products (SpGEMM), Hadamard
// (elementwise) products, transposes, and row/column sums.
//
// Meta path counting reduces to chains of sparse products over typed
// adjacency matrices (Section III-B of the paper); meta diagram counting
// adds Hadamard products at the shared "join" node types. All matrices
// hold float64 counts; adjacency matrices are 0/1 valued.
//
// A CSR has one of two layouts. The compressed one stores rowPtr, colIdx
// and val. The block one stores every cell of the matrix as one byte,
// row-major, and nothing else: a product whose symbolic pass shows it at
// least ⅛ full and whose values are all integers in 0…255 — the
// attribute counts — is built that way (matMul; a worker's seed decoder
// builds such a count through FromBlock), at most half the bytes of its
// compressed form. Every method and kernel accepts both layouts
// and returns the same floats for both.
package sparse

import (
	"fmt"
	"math/bits"
	"slices"
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

	// block, when non-nil, is the block layout: v(i, j) at
	// block[i·cols+j], rows·cols bytes. rowPtr, colIdx and val are then
	// nil, nnz counts the non-zero cells and rowNNZ those of each row —
	// 8 bytes a row, so RowNNZ, and with it a kernel's choice of regime,
	// needs no pass over a row.
	block  []uint8
	nnz    int
	rowNNZ []int

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
func (m *CSR) NNZ() int {
	if m.block != nil {
		return m.nnz
	}
	return len(m.val)
}

// Block reports whether m is held in the block layout.
func (m *CSR) Block() bool { return m.block != nil }

// Bytes returns the bytes of m's stored layout: 8·(rows+1) + 16·nnz
// compressed, rows·cols + 8·rows as a block. A rank index (rank.go) is
// derived state and not counted.
func (m *CSR) Bytes() int {
	if m.block != nil {
		return len(m.block) + 8*len(m.rowNNZ)
	}
	return 8*len(m.rowPtr) + 16*len(m.val)
}

// blockRow returns row i of a block-layout matrix.
func (m *CSR) blockRow(i int) []uint8 { return m.block[i*m.cols : (i+1)*m.cols] }

// BlockCells returns a block-layout matrix's rows·cols cells, row-major,
// one byte per cell: a view of its storage, which must not be mutated,
// for a codec that ships a block as its bytes. It panics on a compressed
// matrix.
func (m *CSR) BlockCells() []uint8 {
	if m.block == nil {
		panic("sparse: BlockCells of a compressed matrix")
	}
	return m.block
}

// rowBuf is scratch that a block row is decoded into. It only ever holds
// storage it allocated itself, never a view of a matrix.
type rowBuf struct {
	cols []int
	vals []float64
}

// rowOf returns row i's stored column indices and values in increasing
// column order: views of the compressed arrays, or a block row decoded
// into buf. The slices must not be mutated, and a decoded row is valid
// until buf is next used.
func (m *CSR) rowOf(i int, buf *rowBuf) ([]int, []float64) {
	if m.block == nil {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		return m.colIdx[lo:hi], m.val[lo:hi]
	}
	buf.cols, buf.vals = m.AppendRow(i, buf.cols[:0], buf.vals[:0])
	return buf.cols, buf.vals
}

// AppendRow appends row i's stored column indices and values, in
// increasing column order, to cols and vals: a copy for either layout.
func (m *CSR) AppendRow(i int, cols []int, vals []float64) ([]int, []float64) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("sparse: row %d out of range %d", i, m.rows))
	}
	if m.block == nil {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		return append(cols, m.colIdx[lo:hi]...), append(vals, m.val[lo:hi]...)
	}
	// Every cell is written and the cursor moves past the non-zero ones:
	// no branch for the predictor to miss on a row whose zeros are
	// scattered.
	n := len(cols)
	cols, vals = slices.Grow(cols, m.cols)[:n+m.cols], slices.Grow(vals, m.cols)[:n+m.cols]
	for j, v := range m.blockRow(i) {
		cols[n], vals[n] = j, float64(v)
		n += int((uint(v) + 255) >> 8)
	}
	return cols[:n], vals[:n]
}

// compressed returns m in the compressed layout: m itself, or a block's
// cells built into fresh compressed arrays. The latter is what every
// path that needs a block's compressed arrays pays, and is counted
// (activeiter_sparse_block_materializations_total).
func (m *CSR) compressed() *CSR {
	if m.block == nil {
		return m
	}
	mBlockMaterializations.Inc()
	out := &CSR{rows: m.rows, cols: m.cols, rowPtr: make([]int, m.rows+1), colIdx: make([]int, 0, m.nnz), val: make([]float64, 0, m.nnz)}
	var buf rowBuf
	for i := 0; i < m.rows; i++ {
		cols, vals := m.rowOf(i, &buf)
		out.colIdx, out.val = append(out.colIdx, cols...), append(out.val, vals...)
		out.rowPtr[i+1] = len(out.val)
	}
	return out
}

// At returns the value at (i, j), zero when no entry is stored: one
// position probe — O(1) on a matrix a probing kernel has given a rank
// index (rank.go), a binary search within row i otherwise.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	if m.block != nil {
		return float64(m.block[i*m.cols+j])
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
	if m.block != nil {
		for j, v := range m.blockRow(i) {
			if v != 0 {
				fn(j, float64(v))
			}
		}
		return
	}
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.val[k])
	}
}

// RowSlice returns zero-copy views of row i's column indices and
// values, in increasing column order. The slices alias internal storage
// and must not be mutated. A block has no such storage: its row is
// built afresh, and counted as a materialisation.
func (m *CSR) RowSlice(i int) (colIdx []int, val []float64) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("sparse: row %d out of range %d", i, m.rows))
	}
	if m.block != nil {
		mBlockMaterializations.Inc()
		return m.rowOf(i, new(rowBuf))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("sparse: row %d out of range %d", i, m.rows))
	}
	if m.block != nil {
		return m.rowNNZ[i]
	}
	return m.rowPtr[i+1] - m.rowPtr[i]
}

// Iterate calls fn(i, j, v) for every stored entry in row-major order.
func (m *CSR) Iterate(fn func(i, j int, v float64)) {
	if m.block != nil {
		for i := 0; i < m.rows; i++ {
			m.Row(i, func(j int, v float64) { fn(i, j, v) })
		}
		return
	}
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			fn(i, m.colIdx[k], m.val[k])
		}
	}
}

// Clone returns a deep copy in the same layout.
func (m *CSR) Clone() *CSR {
	if m.block != nil {
		return &CSR{rows: m.rows, cols: m.cols, block: slices.Clone(m.block), nnz: m.nnz, rowNNZ: slices.Clone(m.rowNNZ)}
	}
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

// T returns the transpose, built in O(nnz + rows + cols) — a block's
// in O(rows·cols), as a block.
func (m *CSR) T() *CSR {
	if m.block != nil {
		out := &CSR{rows: m.cols, cols: m.rows, block: make([]uint8, len(m.block)), nnz: m.nnz, rowNNZ: make([]int, m.cols)}
		for i := 0; i < m.rows; i++ {
			for j, v := range m.blockRow(i) {
				out.block[j*m.rows+i] = v
				out.rowNNZ[j] += int((uint(v) + 255) >> 8)
			}
		}
		return out
	}
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
	out := m.compressed()
	if out == m {
		out = m.Clone()
	}
	for i := range out.val {
		out.val[i] *= alpha
	}
	return out
}

// Scored returns the matrix holding score(i, j, v) at every stored
// entry (i, j, v) of m, in m's pattern, with a score of zero or NaN
// dropped (±Inf is kept). A block's rows are scored straight off their
// bytes, never widened; the output is compressed, sized once to m's
// entry count.
func (m *CSR) Scored(score func(i, j int, v float64) float64) *CSR {
	nnz := m.NNZ()
	out := &CSR{rows: m.rows, cols: m.cols, rowPtr: make([]int, m.rows+1), colIdx: make([]int, 0, nnz), val: make([]float64, 0, nnz)}
	put := func(i, j int, v float64) {
		if s := score(i, j, v); s != 0 && s == s {
			out.colIdx, out.val = append(out.colIdx, j), append(out.val, s)
		}
	}
	for i := 0; i < m.rows; i++ {
		if m.block == nil {
			for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
				put(i, m.colIdx[p], m.val[p])
			}
		} else {
			row := m.blockRow(i)
			for base := 0; base < len(row); base += 8 {
				for nz := nonZeroMask(row, base); nz != 0; nz &= nz - 1 {
					j := base + bits.TrailingZeros64(nz)>>3
					put(i, j, float64(row[j]))
				}
			}
		}
		out.rowPtr[i+1] = len(out.val)
	}
	return out
}

// RowSums returns the vector of per-row entry sums. For a meta diagram
// count matrix this is |P(uᵢ, ·)| in Definition 6.
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.rows)
	if m.block != nil {
		// Integer sums: exactly the floats an in-order float sum gives.
		for i := range out {
			s := 0
			for _, v := range m.blockRow(i) {
				s += int(v)
			}
			out[i] = float64(s)
		}
		return out
	}
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
	if m.block != nil {
		sums := make([]int, m.cols)
		for i := 0; i < m.rows; i++ {
			for j, v := range m.blockRow(i) {
				sums[j] += int(v)
			}
		}
		for j, s := range sums {
			out[j] = float64(s)
		}
		return out
	}
	for k, j := range m.colIdx {
		out[j] += m.val[k]
	}
	return out
}

// Sum returns the sum of all stored values.
func (m *CSR) Sum() float64 {
	if m.block != nil {
		s := 0
		for _, v := range m.block {
			s += int(v)
		}
		return float64(s)
	}
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
	for i, v := range out.block {
		out.block[i] = min(v, 1)
	}
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
// entries, whatever their layouts.
func (m *CSR) Equal(b *CSR) bool {
	if m.rows != b.rows || m.cols != b.cols || m.NNZ() != b.NNZ() {
		return false
	}
	if m.block != nil || b.block != nil {
		var bm, bb rowBuf
		for i := 0; i < m.rows; i++ {
			mc, mv := m.rowOf(i, &bm)
			bc, bv := b.rowOf(i, &bb)
			if !slices.Equal(mc, bc) || !slices.Equal(mv, bv) {
				return false
			}
		}
		return true
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
