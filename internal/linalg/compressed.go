package linalg

import (
	"fmt"
	"math"
	"slices"
)

// Compressed is a read-only row-compressed copy of a Dense matrix: each
// row's non-zero cells and their columns. A meta diagram design matrix
// is nine tenths zeros, and the training loop multiplies it every
// internal iteration, so Compress pays one pass to let X·w, Xᵀy and XᵀX
// walk a tenth of the cells.
//
// The three kernels return the same floats as Dense's, bit for bit.
// Skipping a zero cell skips adding ±0 to a running sum that is never
// −0, which changes nothing — as long as the other factor is finite. It
// is not when a weight, a label or a cell of the matrix itself is ±Inf
// or NaN (0·Inf is NaN): MulVecInto and TMulVec then walk every column
// of the rows concerned, and Compress keeps every cell of a matrix that
// holds a non-finite one, so the kernels degenerate into the dense ones.
type Compressed struct {
	rows, cols int
	rowPtr     []int32 // len rows+1
	col        []int32 // len nnz
	val        []float64
}

// Compress copies the non-zero cells of x.
func Compress(x *Dense) *Compressed {
	return CompressBlocks(x, max(x.rows, 1), func(n int, run func(block int)) {
		for b := 0; b < n; b++ {
			run(b)
		}
	})
}

// CompressBlocks is Compress over blocks of the given number of rows.
// forEach must run run(0), …, run(n−1), each once, in any order and on
// any goroutines, and return when all are done. It is called twice: to
// count each block's non-zero cells, then to copy them to the block's
// offset. The result is Compress's, whatever the blocks and the schedule.
func CompressBlocks(x *Dense, rows int, forEach func(n int, run func(block int))) *Compressed {
	if x.cols > math.MaxInt32 || len(x.data) > math.MaxInt32 {
		panic(fmt.Sprintf("linalg: Compress of a %dx%d matrix", x.rows, x.cols))
	}
	if rows < 1 {
		panic(fmt.Sprintf("linalg: Compress in blocks of %d rows", rows))
	}
	n := (x.rows + rows - 1) / rows
	span := func(b int) (lo, hi int) { return b * rows, min(x.rows, (b+1)*rows) }
	off, finite := make([]int, n+1), make([]bool, n)
	forEach(n, func(b int) {
		lo, hi := span(b)
		count, ok := 0, true
		for _, v := range x.data[lo*x.cols : hi*x.cols] {
			if v != 0 {
				count++
				ok = ok && v-v == 0
			}
		}
		off[b+1], finite[b] = count, ok
	})
	// One non-finite cell anywhere keeps every cell of the matrix. The
	// counts become each block's offset.
	keepAll := slices.Contains(finite, false)
	for b := 0; b < n; b++ {
		if keepAll {
			lo, hi := span(b)
			off[b+1] = (hi - lo) * x.cols
		}
		off[b+1] += off[b]
	}
	c := &Compressed{
		rows: x.rows, cols: x.cols,
		rowPtr: make([]int32, x.rows+1),
		col:    make([]int32, off[n]),
		val:    make([]float64, off[n]),
	}
	forEach(n, func(b int) {
		lo, hi := span(b)
		k := off[b]
		for i := lo; i < hi; i++ {
			for j, v := range x.data[i*x.cols : (i+1)*x.cols] {
				if v != 0 || keepAll {
					c.col[k], c.val[k] = int32(j), v
					k++
				}
			}
			c.rowPtr[i+1] = int32(k)
		}
	})
	return c
}

// Dims returns the number of rows and columns.
func (c *Compressed) Dims() (rows, cols int) { return c.rows, c.cols }

// row returns the columns and values stored for row i.
func (c *Compressed) row(i int) ([]int32, []float64) {
	lo, hi := c.rowPtr[i], c.rowPtr[i+1]
	return c.col[lo:hi], c.val[lo:hi]
}

// finiteVec reports whether every component of v is finite.
func finiteVec(v Vector) bool {
	for _, x := range v {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// MulVecInto writes X·v into dst and returns it — Dense.MulVecInto's
// floats. It panics on dimension mismatch.
func (c *Compressed) MulVecInto(dst, v Vector) Vector {
	if len(dst) != c.rows {
		panic(fmt.Sprintf("linalg: MulVecInto dst length %d, want %d", len(dst), c.rows))
	}
	c.MulVecRowsInto(dst, v, 0, c.rows)
	return dst
}

// MulVecRowsInto writes rows [lo, hi) of X·v into dst[lo:hi] and leaves
// the rest of dst alone: each cell is the one row's dot product
// MulVecInto computes, so row ranges taken in any order, on any
// goroutine, assemble its floats. It panics on dimension mismatch or a
// range outside the rows.
func (c *Compressed) MulVecRowsInto(dst, v Vector, lo, hi int) {
	if c.cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %dx%d · %d", c.rows, c.cols, len(v)))
	}
	if lo < 0 || lo > hi || hi > c.rows || len(dst) < hi {
		panic(fmt.Sprintf("linalg: MulVecRowsInto rows [%d,%d) of %d into %d cells", lo, hi, c.rows, len(dst)))
	}
	wide := !finiteVec(v)
	for i := lo; i < hi; i++ {
		cols, vals := c.row(i)
		var s float64
		if wide {
			// Some v[j] is ±Inf or NaN: a zero cell times it is NaN, so
			// every column takes part, stored or not.
			k := 0
			for j, vj := range v {
				var x float64
				if k < len(cols) && int(cols[k]) == j {
					x = vals[k]
					k++
				}
				s += x * vj
			}
		} else {
			for k, x := range vals {
				s += x * v[cols[k]]
			}
		}
		dst[i] = s
	}
}

// TMulVec returns Xᵀ·v — Dense.TMulVec's floats. It panics on dimension
// mismatch.
func (c *Compressed) TMulVec(v Vector) Vector {
	if c.rows != len(v) {
		panic(fmt.Sprintf("linalg: TMulVec dimension mismatch %dx%d ᵀ· %d", c.rows, c.cols, len(v)))
	}
	out := make(Vector, c.cols)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		cols, vals := c.row(i)
		if vi-vi != 0 {
			// A non-finite v[i] turns the row's zero cells into NaN terms.
			k := 0
			for j := range out {
				var x float64
				if k < len(cols) && int(cols[k]) == j {
					x = vals[k]
					k++
				}
				out[j] += vi * x
			}
			continue
		}
		for k, x := range vals {
			out[cols[k]] += vi * x
		}
	}
	return out
}

// Gram returns XᵀX (cols×cols) — Dense.Gram's floats: the stored cells
// of a row are all finite or the row is stored in full, so a skipped
// product is always a ±0 term.
func (c *Compressed) Gram() *Dense {
	out := NewDense(c.cols, c.cols)
	for i := 0; i < c.rows; i++ {
		cols, vals := c.row(i)
		for a, va := range vals {
			if va == 0 {
				continue
			}
			orow := out.data[int(cols[a])*c.cols : (int(cols[a])+1)*c.cols]
			for b, vb := range vals {
				orow[cols[b]] += va * vb
			}
		}
	}
	return out
}
