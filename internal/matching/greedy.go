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

// Occupied tracks endpoint usage across both networks, pre-seeded with
// the endpoints of known positive links (labeled and queried-positive
// anchors occupy their users before any inference happens).
type Occupied struct {
	left  map[int]bool
	right map[int]bool
}

// NewOccupied builds an endpoint-usage tracker.
func NewOccupied() *Occupied {
	return &Occupied{left: make(map[int]bool), right: make(map[int]bool)}
}

// Take marks both endpoints of (i, j) as used.
func (o *Occupied) Take(i, j int) {
	o.left[i] = true
	o.right[j] = true
}

// Free reports whether both endpoints of (i, j) are unused.
func (o *Occupied) Free(i, j int) bool {
	return !o.left[i] && !o.right[j]
}

// Clone deep-copies the tracker.
func (o *Occupied) Clone() *Occupied {
	c := NewOccupied()
	for k := range o.left {
		c.left[k] = true
	}
	for k := range o.right {
		c.right[k] = true
	}
	return c
}

// finite reports whether a score can participate in selection. NaN
// scores make the sort comparator intransitive (and compare false
// against any threshold), and ±Inf corrupts the selection objective, so
// non-finite candidates are dropped before ordering.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// Greedy selects candidates in descending score order, keeping a
// candidate when its score exceeds threshold and both endpoints are
// free (including endpoints consumed by occ, which is mutated). Ties
// break deterministically by (I, J). Candidates with non-finite scores
// are skipped. The returned slice preserves the descending-score pick
// order. This is the ½-approximation greedy of reference [21]; with
// threshold ½ it greedily maximizes Σ(2ŷ−1).
//
// Only candidates that can be selected — finite score above threshold —
// are ordered; the rest of the pool, usually nearly all of it, is read
// once and never sorted. No score exceeds a NaN threshold, so a NaN
// threshold selects nothing.
func Greedy(cands []Candidate, threshold float64, occ *Occupied) []Candidate {
	if occ == nil {
		occ = NewOccupied()
	}
	var order []int
	for i, c := range cands {
		if finite(c.Score) && c.Score > threshold {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		ca, cb := cands[a], cands[b]
		return cmp.Or(cmp.Compare(cb.Score, ca.Score), cmp.Compare(ca.I, cb.I), cmp.Compare(ca.J, cb.J))
	})
	var out []Candidate
	for _, k := range order {
		c := cands[k]
		if !occ.Free(c.I, c.J) {
			continue
		}
		occ.Take(c.I, c.J)
		out = append(out, c)
	}
	return out
}

// TotalGain returns the selection objective Σ (2·score − 1) of a
// selected set, the quantity the ½-approximation bound refers to when
// threshold = ½.
func TotalGain(selected []Candidate) float64 {
	var g float64
	for _, c := range selected {
		g += 2*c.Score - 1
	}
	return g
}
