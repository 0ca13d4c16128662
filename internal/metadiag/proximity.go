package metadiag

import (
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// Proximity holds the meta diagram proximity structure of Definition 6
// for one diagram Φₖ: the instance count matrix plus the out-going and
// in-coming instance totals used for normalization,
//
//	s_Φₖ(u⁽¹⁾ᵢ, u⁽²⁾ⱼ) = 2·|P(i,j)| / (|P(i,·)| + |P(·,j)|) .
type Proximity struct {
	Counts  *sparse.CSR
	RowSums []float64
	ColSums []float64
}

// NewProximity wraps a count matrix with its marginals.
func NewProximity(counts *sparse.CSR) *Proximity {
	return &Proximity{
		Counts:  counts,
		RowSums: counts.RowSums(),
		ColSums: counts.ColSums(),
	}
}

// Score returns s_Φₖ(i, j). Pairs with no instances score 0, as do pairs
// whose normalizer is 0 (neither user participates in any instance) and
// pairs outside the matrix. The count is one position probe
// (sparse.CSR.At). Safe for concurrent use.
func (p *Proximity) Score(i, j int) float64 {
	if r, c := p.Counts.Dims(); i < 0 || i >= r || j < 0 || j >= c {
		return 0
	}
	cnt := p.Counts.At(i, j)
	if cnt == 0 {
		return 0
	}
	denom := p.RowSums[i] + p.ColSums[j]
	if denom == 0 {
		return 0
	}
	return 2 * cnt / denom
}

// ScoreMatrix materializes all proximity scores as a sparse matrix with
// the same pattern as the count matrix.
func (p *Proximity) ScoreMatrix() *sparse.CSR {
	r, c := p.Counts.Dims()
	b := sparse.NewBuilder(r, c)
	p.Counts.Iterate(func(i, j int, v float64) {
		denom := p.RowSums[i] + p.ColSums[j]
		if denom > 0 {
			b.Add(i, j, 2*v/denom)
		}
	})
	return b.Build()
}

// Proximity computes the proximity structure for diagram d. For an
// anchor-free diagram the structure is shared: every fork asking for it
// gets the one Proximity cached beside the shared count, whether that
// count was derived here or installed by SeedInto. Anchor-dependent
// structures are built per call.
func (c *Counter) Proximity(d schema.Diagram) (*Proximity, error) {
	counts, err := c.Count(d)
	if err != nil {
		return nil, err
	}
	if UsesAnchor(d) {
		return NewProximity(counts), nil
	}
	sh := c.sh
	sh.mu.Lock()
	p, ok := sh.prox[counts]
	sh.mu.Unlock()
	if ok {
		return p, nil
	}
	// Built outside the lock; when two forks race, both results are
	// identical and the first stored one wins.
	p = NewProximity(counts)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prev, ok := sh.prox[counts]; ok {
		return prev, nil
	}
	sh.prox[counts] = p
	return p, nil
}
