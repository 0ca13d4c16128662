package sparse

import (
	"fmt"
	"slices"
)

// topEntry is one (column, value) entry of a row under selection.
type topEntry struct {
	j int
	v float64
}

// rowTopK is the one top-k selection every truncating kernel shares: a
// bounded min-heap over a row's entries whose root is the worst entry
// still kept. An entry ranks above another when its value is larger,
// ties going to the smaller column; zeros and NaN are never kept (±Inf
// rank like any other value). Offering a row costs O(n·log k) with no
// allocation after the first k entries; k must be positive.
type rowTopK struct {
	k    int
	heap []topEntry
}

// worse reports whether a ranks below b.
func (a topEntry) worse(b topEntry) bool {
	return a.v < b.v || (a.v == b.v && a.j > b.j)
}

// offer considers entry (j, v) of the current row.
func (s *rowTopK) offer(j int, v float64) {
	e := topEntry{j: j, v: v}
	if v == 0 || v != v || (len(s.heap) == s.k && !s.heap[0].worse(e)) {
		return
	}
	h := s.heap
	if len(h) < s.k {
		// Sift up from a new leaf.
		h = append(h, e)
		c := len(h) - 1
		for c > 0 {
			p := (c - 1) / 2
			if !e.worse(h[p]) {
				break
			}
			h[c] = h[p]
			c = p
		}
		h[c] = e
		s.heap = h
		return
	}
	// Replace the root (the worst kept entry) and sift down.
	p := 0
	for {
		c := 2*p + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].worse(h[c]) {
			c++
		}
		if !h[c].worse(e) {
			break
		}
		h[p] = h[c]
		p = c
	}
	h[p] = e
}

// emit appends the kept entries to colIdx/val in increasing column
// order and clears the selection for the next row.
func (s *rowTopK) emit(colIdx []int, val []float64) ([]int, []float64) {
	h := s.heap
	slices.SortFunc(h, func(a, b topEntry) int { return a.j - b.j })
	for _, e := range h {
		colIdx = append(colIdx, e.j)
		val = append(val, e.v)
	}
	s.heap = h[:0]
	return colIdx, val
}

// TopKRows builds a rows×cols matrix whose row i keeps the k
// largest-valued of the entries row(i) yields (ties broken toward
// smaller column indices; zeros and NaN never kept). row may yield a
// row's columns in any order, each at most once, and may reuse the
// returned slices between calls. k ≤ 0 returns an empty matrix. For
// callers that score a row on the fly and want only the best of it
// stored — the selection runs per row, nothing wider than k is built.
func TopKRows(rows, cols, k int, row func(i int) (colIdx []int, val []float64)) *CSR {
	out := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	if k <= 0 {
		return out
	}
	sel := rowTopK{k: min(k, cols)}
	for i := 0; i < rows; i++ {
		js, vs := row(i)
		for p, j := range js {
			if uint(j) >= uint(cols) {
				panic(fmt.Sprintf("sparse: TopKRows row %d yields column %d outside %dx%d", i, j, rows, cols))
			}
			sel.offer(j, vs[p])
		}
		out.colIdx, out.val = sel.emit(out.colIdx, out.val)
		out.rowPtr[i+1] = len(out.val)
	}
	return out
}

// TopKPerRow returns a copy of m keeping only the k largest-valued
// entries in each row (ties broken toward smaller column indices; NaN
// entries are never kept). k ≤ 0 returns an empty matrix of the same
// shape. Used for candidate generation: keeping each user's k
// best-scored counterparts.
func (m *CSR) TopKPerRow(k int) *CSR {
	return TopKRows(m.rows, m.cols, k, m.RowSlice)
}

// MatMulTopK returns MatMulParallel(a, b).TopKPerRow(k) without ever
// building a·b: each row is accumulated in the pooled Gustavson
// workspace and its k best live columns are selected straight off the
// accumulator, so a near-dense product row costs its flops plus
// O(live·log k) and stores at most k entries. Rows are split across
// GOMAXPROCS workers like MatMulParallel's. It panics on
// inner-dimension mismatch.
func MatMulTopK(a, b *CSR, k int) *CSR {
	if a.cols != b.rows {
		panic(fmt.Sprintf("sparse: MatMulTopK dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if k <= 0 {
		return Zero(a.rows, b.cols)
	}
	return rowBlocks(a.rows, b.cols, func(lo, hi int, rowLen []int) (colIdx []int, val []float64) {
		w := getWorkspace(b.cols)
		defer putWorkspace(w)
		sel := rowTopK{k: min(k, b.cols)}
		for i := lo; i < hi; i++ {
			w.accumulate(a, b, i)
			for _, j := range w.live {
				// Once the selection is full most of a near-dense row ranks
				// below its root: turn those away here, without the call.
				if e := (topEntry{j: j, v: w.acc[j]}); len(sel.heap) < sel.k || sel.heap[0].worse(e) {
					sel.offer(e.j, e.v)
				}
			}
			n := len(val)
			colIdx, val = sel.emit(colIdx, val)
			rowLen[i-lo] = len(val) - n
		}
		return colIdx, val
	})
}
