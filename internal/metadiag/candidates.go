package metadiag

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/sparse"
)

// Candidates proposes candidate anchor links without enumerating the
// full |U⁽¹⁾|×|U⁽²⁾| pair space: it recomputes the features against the
// counter's current anchors, scores every pair some diagram instance
// connects by its total proximity, and keeps the perUser best-scored
// counterparts of every user on both sides. Pairs with no diagram
// instance at all can never score and are never proposed — the sparsity
// of meta diagram evidence is what makes alignment tractable at scale.
//
// The features are read in the forms Recompute leaves, as FeatureMatrix
// reads them (totals), so no anchor-dependent count is built.
//
// The returned candidates are deduplicated and sorted by descending
// total score (ties by index), and exclude the counter's current anchor
// set (those are already known).
func (e *Extractor) Candidates(perUser int) ([]hetnet.Anchor, error) {
	if perUser < 1 || len(e.feats) == 0 {
		return nil, fmt.Errorf("metadiag: proposals need perUser ≥ 1 and a feature diagram, got %d and %d", perUser, len(e.feats))
	}
	if err := e.Recompute(); err != nil {
		return nil, err
	}
	total, labelled, proposed := e.totals(), e.counter.anchorMatrix(), make(map[int64]bool)
	var out []hetnet.Anchor
	add := func(i, j int, _ float64) {
		if k := hetnet.Key(i, j); labelled.At(i, j) == 0 && !proposed[k] {
			proposed[k] = true
			out = append(out, hetnet.Anchor{I: i, J: j})
		}
	}
	total.TopKPerRow(perUser).Iterate(add)
	// Column side: transpose, take top-k rows there, map back.
	total.T().TopKPerRow(perUser).Iterate(func(j, i int, v float64) { add(i, j, v) })
	slices.SortFunc(out, func(a, b hetnet.Anchor) int {
		return cmp.Or(cmp.Compare(total.At(b.I, b.J), total.At(a.I, a.J)), cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})
	return out, nil
}

// totals is the matrix of every connected pair's total proximity: row
// i's pairs are the columns of its products' rows (x·y) and of the
// counts a feature reads alone — a stacked count only narrows its
// product's — each filled and summed in library order from 0, which is
// the float a chained sparse.Add of per-feature score matrices gives.
// Recompute must have succeeded.
func (e *Extractor) totals() *sparse.CSR {
	scores, cells := make([]float64, len(e.feats)), make([]float64, len(e.products)+len(e.counts))
	seen := make([]int, e.cols) // i+1 once column j is among row i's pairs
	var js, xs, ys []int
	var totals, vals []float64
	return sparse.TopKRows(e.rows, e.cols, e.cols, func(i int) ([]int, []float64) {
		js, totals = js[:0], totals[:0]
		pairs := func(m *sparse.CSR, r int) {
			ys, vals = m.AppendRow(r, ys[:0], vals[:0])
			for _, j := range ys {
				if seen[j] != i+1 {
					seen[j] = i + 1
					js = append(js, j)
				}
			}
		}
		for _, p := range e.products {
			xs, vals = p.x.AppendRow(i, xs[:0], vals[:0])
			for _, a := range xs {
				pairs(p.y, a)
			}
		}
		for _, f := range e.prox {
			if f.prod < 0 {
				pairs(e.counts[f.stack], i)
			}
		}
		// TopKRows takes a row in column order.
		slices.Sort(js)
		for _, j := range js {
			e.fill(i, j, scores, cells)
			sum := 0.0
			for _, s := range scores {
				sum += s
			}
			totals = append(totals, sum)
		}
		return js, totals
	})
}
