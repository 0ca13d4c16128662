package sparse

import (
	"math"
	"math/bits"
	"sort"
	"sync"
)

// gemmWorkspace is the per-goroutine scratch state for Gustavson SpGEMM:
// a dense accumulator, a generation-stamped liveness mark, the list of
// live columns for the current row, and a one-bit-per-column set that
// mulRow emits a row through. The set is all-zero between rows: a row
// sets its bits and clears every word it reads back. sum is a second
// dense accumulator, all +0 between rows, that sumRow fills and its
// reader zeroes cell by cell as it reads. Workspaces are
// pooled so repeated products — diagram counting evaluates hundreds of
// chained products per fold — stop re-allocating O(cols) buffers on
// every multiply.
type gemmWorkspace struct {
	acc  []float64
	sum  []float64
	mark []int
	live []int
	bits []uint64
	gen  int
	// ra and rb take a block operand's rows: a's row i, and the row of b
	// being read.
	ra, rb rowBuf
}

var gemmPool = sync.Pool{New: func() any { return new(gemmWorkspace) }}

// getWorkspace returns a workspace with capacity for cols columns. The
// mark array is generation-stamped: row i of a multiply is live where
// mark[j] equals that row's generation, so reusing a pooled workspace
// needs no clearing. Growing the mark array resets the generation, so a
// stale stamp can never alias a live row.
func getWorkspace(cols int) *gemmWorkspace {
	w := gemmPool.Get().(*gemmWorkspace)
	if cap(w.mark) < cols {
		w.acc = make([]float64, cols)
		w.mark = make([]int, cols)
		w.bits = make([]uint64, (cols+63)>>6)
		w.gen = 0
	}
	w.acc = w.acc[:cols]
	w.mark = w.mark[:cols]
	w.bits = w.bits[:(cols+63)>>6]
	// live is written by index in accumulate's flop loop, touched column
	// or not: at most cols entries stay, one more slot takes the writes
	// that do not.
	if cap(w.live) <= cols {
		w.live = make([]int, 0, cols+1)
	}
	return w
}

func putWorkspace(w *gemmWorkspace) { gemmPool.Put(w) }

// accumulate runs Gustavson's inner loops for row i of a·b: afterwards
// w.live lists the columns the row touched (in first-touch order),
// w.acc[j] holds their sums, and [minJ, maxJ] spans them (b.cols, -1 for
// an untouched row). Every kernel over a·b goes through here, so they
// all add a row's terms in the same order and produce the same floats.
func (w *gemmWorkspace) accumulate(a, b *CSR, i int) (minJ, maxJ int) {
	w.gen++
	gen := w.gen
	mark, acc := w.mark, w.acc
	live, n := w.live[:cap(w.live)], 0
	minJ, maxJ = b.cols, -1
	ac, avs := a.rowOf(i, &w.ra)
	rowPtr, colIdx, val := b.rowPtr, b.colIdx, b.val // nil rowPtr: b is a block
	for ka, k := range ac {
		av := avs[ka]
		// b's row k, sliced here rather than through rowOf: a thin left
		// factor makes this once per flop, and the call would cost more
		// than the flop.
		var bc []int
		var bv []float64
		if rowPtr != nil {
			lo, hi := rowPtr[k], rowPtr[k+1]
			bc, bv = colIdx[lo:hi], val[lo:hi]
		} else {
			bc, bv = b.rowOf(k, &w.rb)
		}
		for kb, j := range bc {
			// Branch-free first touch: whether column j is new to the row
			// is a coin toss the predictor loses, so the slot is written
			// either way and only the cursor, the span and the running
			// sum's starting bits depend on it.
			fresh := 0
			if mark[j] != gen {
				fresh = 1
			}
			mark[j] = gen
			live[n] = j
			n += fresh
			minJ, maxJ = min(minJ, j), max(maxJ, j)
			sum := math.Float64frombits(math.Float64bits(acc[j]) & (uint64(fresh) - 1))
			acc[j] = sum + av*bv[kb]
		}
	}
	w.live = live[:n]
	return minJ, maxJ
}

// sumRow adds row i of a·b into w.sum and sets the bit of every column
// it touches in w.bits, returning the span [lo, hi] of words that may
// hold set bits (lo > hi for an untouched row). The caller reads the row
// back and restores both invariants: every cell and word it reads is
// zeroed. A cell's terms are added in accumulate's order onto +0, the
// sum accumulate's first touch starts from, so every cell holds the
// float accumulate gives — without accumulate's per-flop liveness
// stamps and live list.
func (w *gemmWorkspace) sumRow(a, b *CSR, i int) (lo, hi int) {
	if len(w.sum) < b.cols {
		w.sum = make([]float64, b.cols)
	}
	minJ, maxJ := b.cols, -1
	ac, avs := a.rowOf(i, &w.ra)
	for ka, k := range ac {
		// b's row k, sliced here rather than through rowOf when b is
		// compressed: the call would cost more than the row's flops.
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

// countRow is the symbolic half of a product row: accumulate's
// branch-free mark-stamp loop without the multiply, returning how many
// distinct columns row i of a·b touches.
func (w *gemmWorkspace) countRow(a, b *CSR, i int) int {
	w.gen++
	gen, mark, n := w.gen, w.mark, 0
	ac, _ := a.rowOf(i, &w.ra)
	rowPtr, colIdx := b.rowPtr, b.colIdx // nil rowPtr: b is a block
	for _, k := range ac {
		var bc []int
		if rowPtr != nil {
			bc = colIdx[rowPtr[k]:rowPtr[k+1]]
		} else {
			bc, _ = b.rowOf(k, &w.rb)
		}
		for _, j := range bc {
			fresh := 0
			if mark[j] != gen {
				fresh = 1
			}
			mark[j] = gen
			n += fresh
		}
	}
	return n
}

// denseRow is the numeric half of a product row in the block layout: it
// accumulates row i of a·b as mulRow does, so a cell holds the float the
// compressed product stores, and writes the touched cells into row, the
// output's zeroed bytes. It returns the row's non-zero cells, or ok
// false, leaving row part written, at the first cell that fails
// BlockCell.
func (w *gemmWorkspace) denseRow(a, b *CSR, i int, row []uint8) (nnz int, ok bool) {
	w.accumulate(a, b, i)
	for _, j := range w.live {
		if !BlockCell(w.acc[j]) {
			return 0, false
		}
		row[j] = uint8(w.acc[j])
		if row[j] != 0 {
			nnz++
		}
	}
	return nnz, true
}

// rowEmit names how mulRow wrote a row out: not at all (the row is
// empty), through the column bitset, or by sorting its live list.
type rowEmit uint8

const (
	emitNone rowEmit = iota
	emitBitset
	emitSorted
)

// mulRow is the numeric half: it accumulates row i of a·b and writes
// every column the row touched, in increasing column order, to colIdx
// and val — the row's final slots, countRow(a, b, i) long. A sum that
// cancelled to exactly zero is written as a stored zero and reported,
// for the caller to squeeze out (CSR.dropZeros) once the product is
// complete.
//
// A row is emitted through the column bitset — one bit set per live
// column, then the words of its span popped in order — unless that span
// covers more than two words per live column, as a thin row scattered
// over a wide product does; such a row sorts its live list instead.
func (w *gemmWorkspace) mulRow(a, b *CSR, i int, colIdx []int, val []float64) (zeros bool, emit rowEmit) {
	minJ, maxJ := w.accumulate(a, b, i)
	live, acc := w.live, w.acc
	if len(live) == 0 {
		return false, emitNone
	}
	// zero collects, in its top bit, whether some emitted sum is ±0:
	// |v|'s bits minus one wraps only for zero.
	var zero uint64
	if lo, hi := minJ>>6, maxJ>>6; hi-lo+1 <= 2*len(live) {
		set := w.bits
		for _, j := range live {
			set[j>>6] |= 1 << (j & 63)
		}
		n := 0
		for wi, word := range set[lo : hi+1] {
			set[lo+wi] = 0
			base := (lo + wi) << 6
			for ; word != 0; word &= word - 1 {
				j := base + bits.TrailingZeros64(word)
				v := acc[j]
				colIdx[n], val[n] = j, v
				zero |= math.Float64bits(v)&^(1<<63) - 1
				n++
			}
		}
		emit = emitBitset
	} else {
		sortLive(live)
		for n, j := range live {
			v := acc[j]
			colIdx[n], val[n] = j, v
			zero |= math.Float64bits(v)&^(1<<63) - 1
		}
		emit = emitSorted
	}
	return zero>>63 != 0, emit
}

// sortLive orders a live-column list, using insertion sort below the
// point where sort.Ints' overhead pays off.
func sortLive(xs []int) {
	if len(xs) <= 48 {
		for i := 1; i < len(xs); i++ {
			x := xs[i]
			j := i - 1
			for j >= 0 && xs[j] > x {
				xs[j+1] = xs[j]
				j--
			}
			xs[j+1] = x
		}
		return
	}
	sort.Ints(xs)
}
