// Package matching implements cardinality-constrained link selection:
// choosing a set of anchor links that respects the one-to-one constraint
// (each user incident to at most one selected link) while maximizing the
// selection objective.
//
// The internal iteration step (1-2) of the paper minimizes ‖ŷ − y‖² over
// binary y subject to the degree constraints. Selecting link l
// contributes (ŷ_l−1)² instead of ŷ_l², a gain of 2ŷ_l−1 — positive
// exactly when ŷ_l > ½. The problem is therefore a maximum-weight
// bipartite matching with weights 2ŷ_l−1 restricted to links with
// ŷ_l > ½. The paper adopts the greedy algorithm of Zhang et al. (WSDM
// 2017, reference [21]), which achieves a ½-approximation; this package
// provides both that greedy (Greedy) and an exact Hungarian solver
// (Exact) used by the ablation benchmarks to quantify the gap.
package matching

import (
	"cmp"
	"maps"
	"math"
	"slices"
)

// Candidate is a scored candidate anchor link. Payload carries the
// caller's identifier (e.g. the index into the candidate pool H) through
// the selection untouched.
type Candidate struct {
	I, J    int
	Score   float64
	Payload int
}

// EndpointTable maps link endpoints — user indices of one network — to
// values, the zero value of T meaning "none". Endpoints in
// [0, tableLimit) index a table; anything else (negative, or beyond any
// user index this code will meet) is kept in a map, so every int has an
// answer and none can size an allocation.
type EndpointTable[T any] struct {
	near []T       // near[e] for e < len(near)
	far  map[int]T // endpoints outside [0, tableLimit); nil until one is set
}

// tableLimit bounds an endpoint table at 4 Mi entries.
const tableLimit = 1 << 22

// reserve extends the table to cover endpoints below n. An n beyond
// tableLimit says nothing about the endpoints the table will hold and
// is ignored: Set grows the table as far as they reach.
func (t *EndpointTable[T]) reserve(n int) {
	if had := len(t.near); n > had && n <= tableLimit {
		t.near = slices.Grow(t.near, n-had)[:n]
		clear(t.near[had:])
	}
}

// Set maps endpoint e to v.
func (t *EndpointTable[T]) Set(e int, v T) {
	if uint(e) >= tableLimit {
		if t.far == nil {
			t.far = make(map[int]T)
		}
		t.far[e] = v
		return
	}
	t.reserve(e + 1)
	t.near[e] = v
}

// Get returns the value endpoint e maps to, zero when none was set.
func (t *EndpointTable[T]) Get(e int) T {
	if uint(e) < uint(len(t.near)) {
		return t.near[e]
	}
	if t.far == nil {
		var zero T
		return zero
	}
	return t.far[e]
}

// Clear unmaps every endpoint, keeping the table's storage for reuse.
func (t *EndpointTable[T]) Clear() {
	clear(t.near)
	t.far = nil
}

// Clone deep-copies the table.
func (t *EndpointTable[T]) Clone() EndpointTable[T] {
	return EndpointTable[T]{near: slices.Clone(t.near), far: maps.Clone(t.far)}
}

// Occupied tracks endpoint usage across both networks, pre-seeded with
// the endpoints of known positive links (labeled and queried-positive
// anchors occupy their users before any inference happens).
type Occupied struct {
	left, right EndpointTable[bool]
}

// NewOccupied builds an endpoint-usage tracker.
func NewOccupied() *Occupied { return &Occupied{} }

// Reserve sizes the tables for left endpoints below nLeft and right
// endpoints below nRight in one step, so that a Clone is two copies and
// none of its Takes allocates. It changes no answer.
func (o *Occupied) Reserve(nLeft, nRight int) {
	o.left.reserve(nLeft)
	o.right.reserve(nRight)
}

// Take marks both endpoints of (i, j) as used.
func (o *Occupied) Take(i, j int) {
	o.left.Set(i, true)
	o.right.Set(j, true)
}

// Free reports whether both endpoints of (i, j) are unused.
func (o *Occupied) Free(i, j int) bool {
	return !o.left.Get(i) && !o.right.Get(j)
}

// Clone deep-copies the tracker.
func (o *Occupied) Clone() *Occupied {
	return &Occupied{left: o.left.Clone(), right: o.right.Clone()}
}

// finite reports whether a score can participate in selection. NaN
// scores make the sort comparator intransitive (and compare false
// against any threshold), and ±Inf corrupts the selection objective, so
// non-finite candidates are dropped before ordering.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// Selectable reports whether a candidate scored score takes part in a
// selection at threshold: a finite score above it. No score exceeds a
// NaN threshold.
func Selectable(score, threshold float64) bool {
	return finite(score) && score > threshold
}

// Compare is Greedy's order: descending score, then ascending I, J and
// Payload. It is total on non-NaN scores, ±Inf included — two
// candidates compare equal only when they are the same candidate — so
// any way of sorting a set of candidates, whole or in runs merged
// afterwards, yields one sequence.
func Compare(a, b Candidate) int {
	switch {
	case a.Score != b.Score:
		if a.Score > b.Score {
			return -1
		}
		return 1
	case a.I != b.I:
		return cmp.Compare(a.I, b.I)
	case a.J != b.J:
		return cmp.Compare(a.J, b.J)
	default:
		return cmp.Compare(a.Payload, b.Payload)
	}
}

// Greedy selects candidates in descending score order, keeping a
// candidate when its score exceeds threshold and both endpoints are
// free (including endpoints consumed by occ, which is mutated). Ties
// break deterministically by (I, J), then by Payload (Compare).
// Candidates with non-finite scores are skipped. The returned slice
// preserves the descending-score pick order. This is the
// ½-approximation greedy of reference [21]; with threshold ½ it greedily
// maximizes Σ(2ŷ−1).
//
// Only candidates that can be selected (Selectable) are ordered, copied
// side by side so the sort compares what it moves; the rest of the
// pool, usually nearly all of it, is read and never sorted.
func Greedy(cands []Candidate, threshold float64, occ *Occupied) []Candidate {
	n := 0
	for _, c := range cands {
		if Selectable(c.Score, threshold) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	order := make([]Candidate, 0, n)
	for _, c := range cands {
		if Selectable(c.Score, threshold) {
			order = append(order, c)
		}
	}
	slices.SortFunc(order, Compare)
	if out := GreedyMerge(order[:0], [][]Candidate{order}, occ); len(out) > 0 {
		return out
	}
	return nil
}

// GreedyMerge is Greedy's walk over candidates already filtered and
// ordered: each run holds candidates with non-NaN scores, ±Inf
// included, sorted by Compare, and the runs are merged as they are
// walked; a candidate is picked when both its endpoints are free. On
// Selectable candidates the picks are Greedy's over the runs' union;
// the shard merge (internal/partition) also walks ±Inf, which rank
// above and below every finite score. It appends the picks to dst,
// which may be the single run's own storage (runs[0][:0] when
// len(runs) == 1) and otherwise must not overlap a run, and returns it.
// occ is mutated as Greedy mutates it.
func GreedyMerge(dst []Candidate, runs [][]Candidate, occ *Occupied) []Candidate {
	if occ == nil {
		occ = NewOccupied()
	}
	// heads is a min-heap of the non-empty runs under their first
	// candidate; the root's head is the next candidate in Greedy's order.
	heads := make([][]Candidate, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			heads = append(heads, r)
		}
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(heads) {
				return
			}
			if r := l + 1; r < len(heads) && Compare(heads[r][0], heads[l][0]) < 0 {
				l = r
			}
			if Compare(heads[l][0], heads[i][0]) >= 0 {
				return
			}
			heads[i], heads[l] = heads[l], heads[i]
			i = l
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heads) > 0 {
		c := heads[0][0]
		if heads[0] = heads[0][1:]; len(heads[0]) == 0 {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
		if occ.Free(c.I, c.J) {
			occ.Take(c.I, c.J)
			dst = append(dst, c)
		}
	}
	return dst
}
