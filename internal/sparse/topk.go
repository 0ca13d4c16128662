package sparse

import "fmt"

// topEntry is one (column, value) entry of a row under selection.
type topEntry struct {
	j int
	v float64
}

// rowTopK is the one top-k selection every truncating kernel shares. An
// entry ranks above another when its value is larger, ties going to the
// smaller column; zeros and NaN are never kept (±Inf rank like any
// other value). A row is offered in increasing column order, so an
// entry that ties a kept value ranks below it: top holds the k largest
// values offered so far, descending, and an entry is a candidate only
// when its value exceeds top's last once top is full — one comparison
// turns away the rest of a near-dense row. Every candidate is recorded
// in column order, and emit keeps those above the k-th value plus, of
// its ties, as many as top holds, smallest columns first: the row's
// top k, already in column order. k must be positive.
type rowTopK struct {
	k    int
	top  []float64
	cand []topEntry
}

// threshold is the k-th value held; once full, an entry must exceed it
// to be a candidate.
func (s *rowTopK) threshold() float64 { return s.top[s.k-1] }

// full reports whether top holds k values.
func (s *rowTopK) full() bool { return len(s.top) == s.k }

// keep is addRow's half for a row of at most k entries: every entry
// that is neither zero nor NaN is kept with no ranking at all. Such
// entries never enter top, and emit keeps every candidate of a row
// whose top is empty.
func (s *rowTopK) keep(j int, v float64) {
	if v != 0 && v == v {
		s.cand = append(s.cand, topEntry{j: j, v: v})
	}
}

// offer is addRow's ranked half, for an entry the caller has found above
// the threshold (or with top not yet full): it becomes a candidate and
// its value takes its place in top.
func (s *rowTopK) offer(j int, v float64) {
	n := len(s.top)
	if v == 0 || v != v {
		return
	}
	s.cand = append(s.cand, topEntry{j: j, v: v})
	top := s.top
	if n < s.k {
		top = append(top, v)
		s.top = top
	} else {
		n-- // v displaces the k-th value
	}
	for ; n > 0 && top[n-1] < v; n-- {
		top[n] = top[n-1]
	}
	top[n] = v
}

// addRow adds a row given in increasing column order.
func (s *rowTopK) addRow(cols []int, vals []float64) {
	whole := len(cols) <= s.k
	for p, j := range cols {
		if v := vals[p]; whole {
			s.keep(j, v)
		} else if !s.full() || v > s.threshold() {
			s.offer(j, v)
		}
	}
}

// emit appends the row's selection to colIdx/val in increasing column
// order and clears the selection for the next row.
func (s *rowTopK) emit(colIdx []int, val []float64) ([]int, []float64) {
	if n := len(s.top); n == 0 {
		for _, e := range s.cand {
			colIdx, val = append(colIdx, e.j), append(val, e.v)
		}
	} else {
		t, ties := s.top[n-1], 0
		for p := n - 1; p >= 0 && s.top[p] == t; p-- {
			ties++
		}
		for _, e := range s.cand {
			switch {
			case e.v > t:
			case e.v == t && ties > 0:
				ties--
			default:
				continue
			}
			colIdx, val = append(colIdx, e.j), append(val, e.v)
		}
	}
	s.top, s.cand = s.top[:0], s.cand[:0]
	return colIdx, val
}

// TopKRows builds a rows×cols matrix whose row i keeps the k
// largest-valued of the entries row(i) yields (ties broken toward
// smaller column indices; zeros and NaN never kept). row must yield a
// row's columns in strictly increasing order, and may reuse the
// returned slices between calls; a row with at most k entries is copied
// through. k ≤ 0 returns an empty matrix. For callers that score a row
// on the fly and want only the best of it stored — the selection runs
// per row, nothing wider than k is built. A k below cols bounds the
// result at rows·k entries, and the output is allocated at that size
// once. It panics on a column outside [0, cols) or out of order.
func TopKRows(rows, cols, k int, row func(i int) (colIdx []int, val []float64)) *CSR {
	out := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	if k <= 0 {
		return out
	}
	if k < cols {
		out.colIdx, out.val = make([]int, 0, rows*k), make([]float64, 0, rows*k)
	}
	sel := rowTopK{k: min(k, cols)}
	for i := 0; i < rows; i++ {
		js, vs := row(i)
		for p, j := range js {
			if uint(j) >= uint(cols) {
				panic(fmt.Sprintf("sparse: TopKRows row %d yields column %d outside %dx%d", i, j, rows, cols))
			}
			if p > 0 && js[p-1] >= j {
				panic(fmt.Sprintf("sparse: TopKRows row %d yields column %d after %d", i, j, js[p-1]))
			}
		}
		sel.addRow(js, vs)
		out.colIdx, out.val = sel.emit(out.colIdx, out.val)
		out.rowPtr[i+1] = len(out.val)
	}
	return out
}

// TopKPerRow returns a copy of m keeping only the k largest-valued
// entries in each row (ties broken toward smaller column indices; NaN
// entries are never kept). k ≤ 0 returns an empty matrix of the same
// shape. Used for candidate generation: keeping each user's k
// best-scored counterparts. The output is sized once, to
// min(rows·k, nnz).
func (m *CSR) TopKPerRow(k int) *CSR {
	out := &CSR{rows: m.rows, cols: m.cols, rowPtr: make([]int, m.rows+1)}
	if k <= 0 {
		return out
	}
	k = min(k, m.cols)
	size := m.NNZ()
	if k < m.cols {
		size = min(size, m.rows*k)
	}
	out.colIdx, out.val = make([]int, 0, size), make([]float64, 0, size)
	sel := rowTopK{k: k}
	var buf rowBuf
	for i := 0; i < m.rows; i++ {
		sel.addRow(m.rowOf(i, &buf))
		out.colIdx, out.val = sel.emit(out.colIdx, out.val)
		out.rowPtr[i+1] = len(out.val)
	}
	return out
}
