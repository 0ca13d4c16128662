package sparse

import (
	"math"
	"math/bits"
	"sync"
)

// gemmWorkspace is the per-goroutine scratch state for Gustavson SpGEMM:
// a dense accumulator and a one-bit-per-column set of the columns the
// current row touched. Both are all-zero between rows: sumRow (or
// countRow, which sets bits only) fills them, and the row's reader walks
// the set words of the row's span in column order and zeroes every cell
// and word it reads. Workspaces are pooled so repeated products —
// diagram counting evaluates hundreds of chained products per fold —
// stop re-allocating O(cols) buffers on every multiply.
type gemmWorkspace struct {
	sum  []float64
	bits []uint64
	// ra and rb take a block operand's rows: a's row i, and the row of b
	// being read.
	ra, rb rowBuf
}

var gemmPool = sync.Pool{New: func() any { return new(gemmWorkspace) }}

// getWorkspace returns a workspace with capacity for cols columns. A
// pooled workspace is all-zero, so it needs no clearing; one too narrow
// gets fresh buffers.
func getWorkspace(cols int) *gemmWorkspace {
	w := gemmPool.Get().(*gemmWorkspace)
	if cap(w.sum) < cols {
		w.sum = make([]float64, cols)
		w.bits = make([]uint64, (cols+63)>>6)
	}
	w.sum = w.sum[:cols]
	w.bits = w.bits[:(cols+63)>>6]
	return w
}

func putWorkspace(w *gemmWorkspace) { gemmPool.Put(w) }

// sumRow adds row i of a·b into w.sum and sets the bit of every column
// it touches in w.bits, returning the span [lo, hi] of words that may
// hold set bits (lo > hi for an untouched row). The caller reads the row
// back and restores both invariants: every cell and word it reads is
// zeroed. Every kernel that reads a·b's values sums through here, so
// they all add a cell's terms in the same order — a's row, then b's —
// onto +0, and produce the same floats.
func (w *gemmWorkspace) sumRow(a, b *CSR, i int) (lo, hi int) {
	minJ, maxJ := b.cols, -1
	ac, avs := a.rowOf(i, &w.ra)
	for ka, k := range ac {
		// b's row k, sliced here rather than through rowOf when b is
		// compressed: a thin left factor makes this once per flop, and the
		// call would cost more than the flop.
		var bc []int
		var bv []float64
		if b.block == nil {
			lo, hi := b.rowPtr[k], b.rowPtr[k+1]
			bc, bv = b.colIdx[lo:hi], b.val[lo:hi]
		} else {
			bc, bv = b.rowOf(k, &w.rb)
		}
		if len(bc) > 0 {
			addScaled(w.sum, w.bits, avs[ka], bc, bv)
			// Rows hold their columns in increasing order.
			minJ, maxJ = min(minJ, bc[0]), max(maxJ, bc[len(bc)-1])
		}
	}
	return minJ >> 6, maxJ >> 6
}

// addScaled adds av·bv[p] into sum[bc[p]] and sets bit bc[p] of set,
// for every p: the terms one row of b gives sumRow. Its loop reads
// locals only, so every operand stays in a register.
func addScaled(sum []float64, set []uint64, av float64, bc []int, bv []float64) {
	bv = bv[:len(bc)]
	for p, j := range bc {
		sum[j] += av * bv[p]
		set[j>>6] |= 1 << (j & 63)
	}
}

// countRow is the symbolic half of a product row: it sets the bit of
// every column row i of a·b touches, then returns how many are set,
// clearing each word of the span as it counts it.
func (w *gemmWorkspace) countRow(a, b *CSR, i int) int {
	set := w.bits
	minJ, maxJ := b.cols, -1
	ac, _ := a.rowOf(i, &w.ra)
	for _, k := range ac {
		var bc []int
		if b.block == nil {
			bc = b.colIdx[b.rowPtr[k]:b.rowPtr[k+1]]
		} else {
			bc, _ = b.rowOf(k, &w.rb)
		}
		for _, j := range bc {
			set[j>>6] |= 1 << (j & 63)
		}
		if len(bc) > 0 {
			minJ, maxJ = min(minJ, bc[0]), max(maxJ, bc[len(bc)-1])
		}
	}
	n := 0
	for wi := minJ >> 6; wi <= maxJ>>6; wi++ {
		n += bits.OnesCount64(set[wi])
		set[wi] = 0
	}
	return n
}

// denseRow is the numeric half of a product row in the block layout: it
// sums row i of a·b as mulRow does, so a cell holds the float the
// compressed product stores, and writes the touched cells into row, the
// output's zeroed bytes. It returns the row's non-zero cells, or ok
// false, leaving row part written, when some cell fails BlockCell; it
// reads the whole span either way, so the workspace is left zeroed.
func (w *gemmWorkspace) denseRow(a, b *CSR, i int, row []uint8) (nnz int, ok bool) {
	lo, hi := w.sumRow(a, b, i)
	sum, set := w.sum, w.bits
	ok = true
	for wi := lo; wi <= hi; wi++ {
		word := set[wi]
		set[wi] = 0
		for base := wi << 6; word != 0; word &= word - 1 {
			j := base + bits.TrailingZeros64(word)
			v := sum[j]
			sum[j] = 0
			if !BlockCell(v) {
				ok = false
			} else if row[j] = uint8(v); row[j] != 0 {
				nnz++
			}
		}
	}
	return nnz, ok
}

// mulRow is the numeric half: it sums row i of a·b and writes every
// column the row touched, in increasing column order — the span's words
// popped with bits.TrailingZeros64 — to colIdx and val, the row's final
// slots, countRow(a, b, i) long. A sum that cancelled to exactly zero is
// written as a stored zero and reported, for the caller to squeeze out
// (CSR.dropZeros) once the product is complete.
func (w *gemmWorkspace) mulRow(a, b *CSR, i int, colIdx []int, val []float64) (zeros bool) {
	lo, hi := w.sumRow(a, b, i)
	sum, set := w.sum, w.bits
	// zero collects, in its top bit, whether some emitted sum is ±0:
	// |v|'s bits minus one wraps only for zero.
	var zero uint64
	n := 0
	for wi := lo; wi <= hi; wi++ {
		word := set[wi]
		set[wi] = 0
		for base := wi << 6; word != 0; word &= word - 1 {
			j := base + bits.TrailingZeros64(word)
			v := sum[j]
			sum[j] = 0
			colIdx[n], val[n] = j, v
			zero |= math.Float64bits(v)&^(1<<63) - 1
			n++
		}
	}
	return zero>>63 != 0
}
