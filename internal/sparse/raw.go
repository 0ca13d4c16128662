package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Raw returns zero-copy views of the CSR internals — shape, row
// pointers, column indices, values — for serialization. The slices
// alias internal storage and must not be mutated. A block has no such
// arrays: they are built afresh, and counted as a materialisation.
func (m *CSR) Raw() (rows, cols int, rowPtr, colIdx []int, val []float64) {
	c := m.compressed()
	return c.rows, c.cols, c.rowPtr, c.colIdx, c.val
}

// FromRaw builds a CSR directly from its component arrays, taking
// ownership of the slices (no copy). The arrays are validated as
// hostile input — a decoded wire payload must not be able to smuggle an
// index that makes a later multiply read out of bounds: rowPtr must be
// a monotone run from 0 to nnz with rows+1 entries, and each row's
// column indices must be strictly increasing within [0, cols).
// Explicit zero values are accepted (the counting pipeline never emits
// them, but they are harmless).
func FromRaw(rows, cols int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: FromRaw negative shape %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("sparse: FromRaw rowPtr len %d, want %d", len(rowPtr), rows+1)
	}
	if len(colIdx) != len(val) {
		return nil, fmt.Errorf("sparse: FromRaw colIdx len %d vs val len %d", len(colIdx), len(val))
	}
	if rowPtr[0] != 0 || rowPtr[rows] != len(val) {
		return nil, fmt.Errorf("sparse: FromRaw rowPtr spans [%d,%d], want [0,%d]", rowPtr[0], rowPtr[rows], len(val))
	}
	for i := 0; i < rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		if lo > hi || hi > len(val) {
			return nil, fmt.Errorf("sparse: FromRaw rowPtr decreases at row %d or overruns %d entries", i, len(val))
		}
		prev := -1
		for k := lo; k < hi; k++ {
			j := colIdx[k]
			if j <= prev || j >= cols {
				return nil, fmt.Errorf("sparse: FromRaw row %d column %d out of order or range %d", i, j, cols)
			}
			prev = j
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// The layout ladder, by a matrix's fill nnz/(rows·cols): below 1⁄64 it
// is compressed (colIdx/val) and nothing more; from 1⁄64 up to ⅛ it is
// compressed and a kernel about to probe it many times ranks it (a
// rankIndex, rankShape); from ⅛ a matrix whose cells are integers in
// 0…255 is a block, a byte per cell (BlockShape, BlockCell).

// rankShape is the rank index's rule: a compressed rows×cols matrix of
// nnz stored entries pays for an index's ⌈cols/64⌉ words per row when
// it stores at least one entry per 64-column word on average,
// nnz·64 ≥ rows·cols, and its columns fit the index's uint32 counts.
func rankShape(rows, cols, nnz int) bool {
	return nnz > 0 && cols <= math.MaxUint32 && float64(nnz)*64 >= float64(rows)*float64(cols)
}

// BlockShape is the shape half of the block layout's rule: a rows×cols
// matrix of nnz stored entries is a block when it is at least ⅛ full —
// rows·cols ≤ 8·nnz, where a byte per cell costs at most half of 16
// bytes per compressed entry. A product rows·cols that overflows is
// never a block. matMul and the seed decoder both ask here.
func BlockShape(rows, cols, nnz int) bool {
	if rows < 0 || cols < 0 || nnz <= 0 {
		return false
	}
	hi, lo := bits.Mul64(uint64(rows), uint64(cols))
	return hi == 0 && lo <= 8*uint64(nnz)
}

// BlockCell is the value half of the rule: v is an integer in 0…255,
// as every cell of a block is. NaN fails it.
func BlockCell(v float64) bool {
	return v >= 0 && v <= math.MaxUint8 && float64(uint8(v)) == v
}

// FromBlock builds a block-layout CSR over cells, taking ownership of
// the slice (no copy): v(i, j) is cells[i·cols+j], and a zero cell is no
// entry. It counts every row's non-zero cells. cells must hold exactly
// rows·cols bytes.
func FromBlock(rows, cols int, cells []uint8) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: FromBlock negative shape %dx%d", rows, cols)
	}
	if hi, lo := bits.Mul64(uint64(rows), uint64(cols)); hi != 0 || lo != uint64(len(cells)) {
		return nil, fmt.Errorf("sparse: FromBlock %d cells for a %dx%d block", len(cells), rows, cols)
	}
	if cells == nil {
		cells = []uint8{} // a nil block is the compressed layout
	}
	m := &CSR{rows: rows, cols: cols, block: cells, rowNNZ: make([]int, rows)}
	for i := range m.rowNNZ {
		m.rowNNZ[i] = nonZeroBytes(m.blockRow(i))
		m.nnz += m.rowNNZ[i]
	}
	return m, nil
}

// nonZeroBytes counts the non-zero bytes of b, eight at a time.
func nonZeroBytes(b []uint8) int {
	n := 0
	for base := 0; base < len(b); base += 8 {
		n += bits.OnesCount64(NonZeroMask(b, base))
	}
	return n
}

// NonZeroMask reads the eight bytes of a block row from base (fewer at
// the row's end) and returns the mask holding the high bit of each
// non-zero byte. Adding 0x7f to a byte's low seven bits carries into its
// high bit exactly when they are not all zero, and or-ing in the byte
// itself catches a high bit of its own. Walking a row by the mask —
// cell base + TrailingZeros64(nz)/8, then nz &= nz-1 — visits its
// non-zero cells in column order with no branch on a zero cell.
func NonZeroMask(row []uint8, base int) uint64 {
	const lowBits, highBits = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	var w uint64
	if base+8 <= len(row) {
		w = binary.LittleEndian.Uint64(row[base:])
	} else {
		for p, v := range row[base:] {
			w |= uint64(v) << (8 * p)
		}
	}
	return ((w & lowBits) + lowBits | w) & highBits
}
