package sparse

import "fmt"

// Raw returns zero-copy views of the CSR internals — shape, row
// pointers, column indices, values — for serialization. The slices
// alias internal storage and must not be mutated.
func (m *CSR) Raw() (rows, cols int, rowPtr, colIdx []int, val []float64) {
	return m.rows, m.cols, m.rowPtr, m.colIdx, m.val
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
