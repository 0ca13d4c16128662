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

// ScoreMatrix builds the proximity score matrix: s_Φₖ at every stored
// count, in the count's pattern (sparse.CSR.Scored). Each count is
// scored where it is stored — a block's rows straight off their bytes.
func (p *Proximity) ScoreMatrix() *sparse.CSR {
	return p.Counts.Scored(func(i, j int, v float64) float64 {
		if denom := p.RowSums[i] + p.ColSums[j]; denom > 0 {
			return 2 * v / denom
		}
		return 0
	})
}

// Proximity computes the proximity structure for diagram d. For an
// anchor-free diagram the structure is shared: every fork asking for it
// gets the one Proximity cached beside the shared count, whether that
// count was derived here or installed by SeedInto. Anchor-dependent
// structures are built per call.
func (c *Counter) Proximity(d schema.Diagram) (*Proximity, error) {
	if err := d.Validate(c.sh.sch); err != nil {
		return nil, err
	}
	return c.proximity(newNode(d))
}

// proximity is Proximity of a node whose diagram is valid.
func (c *Counter) proximity(n *node) (*Proximity, error) {
	counts, err := c.eval(n)
	if err != nil {
		return nil, err
	}
	if n.anchor {
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

// factored is an anchor-dependent proximity held as the factors of its
// count, (x·y) ⊙ d, and never as the count: x counts pre∘anchor through
// the counter's anchor layer — as thin as the labelled anchor set — pre
// counts x's anchor-free half, y counts post and d, nil when nothing is
// stacked, the anchor-free part beside them, all three from the shared
// Lemma-2 layer (the seed, on a worker). Definition 6 needs of a count
// its value at a candidate link, its row sums and its column sums; the
// extractor reads all three off the factors (sparse.MatMulAt,
// sparse.MatMulMarginals, per anchor sparse.AnchorTerms), bit for bit
// what Counter.Proximity's materialised count gives — see the
// integrality argument in sparse/factored.go.
type factored struct {
	pre, x, y, d *sparse.CSR
	// preD is pre's diagram: read backwards, it counts preᵀ, which the
	// extractor asks for only when an anchor's terms are first stored.
	preD schema.Diagram
}

// factorise reports whether d's canonical form has the shape every
// anchor-dependent library family has, and splits it: a Series[pre,
// anchor, post] with one anchor-free part on each side of its one anchor
// edge (P1–P4, Ψ^f²), alone or as the one anchor-using part of a
// two-part Parallel (Ψ^{f,a}, Ψ^{f,a²}, Ψ^{f²,a²}), whose other part is
// returned as stacked. head is Series[pre, anchor]. Any other shape — two anchor
// edges, an anchor at either end, a longer prefix, a wider stack — is
// counted materialised; like jointFactors, the choice reads the shape
// alone, before anything is evaluated.
func factorise(d schema.Diagram) (head, post, stacked schema.Diagram, ok bool) {
	d = schema.Canonical(d)
	if par, isPar := d.(schema.Parallel); isPar && len(par.Parts) == 2 {
		d, stacked = par.Parts[0], par.Parts[1]
		if UsesAnchor(stacked) {
			d, stacked = stacked, d
		}
		if UsesAnchor(stacked) {
			return nil, nil, nil, false
		}
	}
	s, isSeries := d.(schema.Series)
	if !isSeries || len(s.Parts) != 3 || UsesAnchor(s.Parts[0]) || UsesAnchor(s.Parts[2]) {
		return nil, nil, nil, false
	}
	if e, isEdge := s.Parts[1].(schema.Edge); !isEdge || e.Rel != schema.Anchor {
		return nil, nil, nil, false
	}
	return schema.Series{Parts: s.Parts[:2]}, s.Parts[2], stacked, true
}

// featureForm is one feature's diagram as Recompute evaluates it, put
// in canonical form once per Extractor: the nodes of the split factorise
// finds — pre, head = Series[pre, anchor], post and the stacked part,
// nil when nothing is stacked — or, for any other shape, the whole
// diagram's node. d is the diagram as given, which every evaluation
// validates against its counter's schema.
type featureForm struct {
	d                        schema.Diagram
	whole                    *node
	pre, head, post, stacked *node
}

func newFeatureForm(d schema.Diagram) featureForm {
	head, post, stacked, ok := factorise(d)
	if !ok {
		return featureForm{d: d, whole: newNode(d)}
	}
	// factorise splits d's canonical form, so every piece is canonical.
	f := featureForm{d: d, pre: canonicalNode(head.(schema.Series).Parts[0]), head: canonicalNode(head), post: canonicalNode(post)}
	if stacked != nil {
		f.stacked = canonicalNode(stacked)
	}
	return f
}

// form evaluates a feature in the form its shape selects: the factors of
// a diagram factorise accepts, Proximity's materialised structure for
// any other. Exactly one of the two is non-nil on success.
func (c *Counter) form(ff *featureForm) (*Proximity, *factored, error) {
	if err := ff.d.Validate(c.sh.sch); err != nil {
		return nil, nil, err
	}
	if ff.whole != nil {
		p, err := c.proximity(ff.whole)
		return p, nil, err
	}
	f := &factored{preD: ff.pre.d}
	var err error
	if f.pre, err = c.eval(ff.pre); err != nil {
		return nil, nil, err
	}
	if f.x, err = c.eval(ff.head); err != nil {
		return nil, nil, err
	}
	if f.y, err = c.eval(ff.post); err != nil {
		return nil, nil, err
	}
	if ff.stacked != nil {
		if f.d, err = c.eval(ff.stacked); err != nil {
			return nil, nil, err
		}
	}
	return nil, f, nil
}
