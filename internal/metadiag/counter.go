// Package metadiag counts inter-network meta diagram instances and
// derives the meta diagram proximity features of Definition 6.
//
// Counting exploits the series-parallel structure of the schema package's
// diagrams: a Series composes counts by sparse matrix product over the
// shared intermediate node type, a Parallel by Hadamard product over the
// shared endpoints. The result for diagram Ψ is the |U⁽¹⁾|×|U⁽²⁾| matrix
// whose (i,j) entry is the number of Ψ instances connecting u⁽¹⁾ᵢ and
// u⁽²⁾ⱼ.
//
// Sub-diagram results are memoized by notation, which realizes the
// paper's Lemma 2 covering-set reuse: when Ψₖ' is a sub-pattern of Ψₖ
// (C(Ψₖ') ⊆ C(Ψₖ)), the computation of Ψₖ starts from the cached Ψₖ'
// matrices rather than recounting. The cache is two-layered: anchor-free
// (attribute-only) counts live in a layer shared by every Fork of a
// counter and survive anchor changes, while anchor-dependent counts live
// in a per-counter layer that SetAnchors invalidates. Both layers are
// safe for concurrent use, with per-notation single-flight so concurrent
// callers never duplicate an evaluation.
package metadiag

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// vocabulary is a joint index space for one shared attribute type,
// merging the attribute values of both networks by external ID. Two
// posts in different networks "share an attribute" exactly when their
// attribute nodes carry the same external ID.
type vocabulary struct {
	ids   []string
	index map[string]int
}

func (v *vocabulary) intern(id string) int {
	if idx, ok := v.index[id]; ok {
		return idx
	}
	idx := len(v.ids)
	v.ids = append(v.ids, id)
	v.index[id] = idx
	return idx
}

// Stats reports cache behaviour of a Counter, used by the Lemma-2
// ablation bench.
type Stats struct {
	Evaluations int // sub-diagram evaluations performed
	CacheHits   int // sub-diagram evaluations answered from cache
}

// inflight is one in-progress sub-diagram evaluation; waiters block on
// done and then read m/err.
type inflight struct {
	done chan struct{}
	m    *sparse.CSR
	err  error
}

// sharedState is the fold-independent half of a counter: the pair, the
// derived schema, joint vocabularies, adjacency matrices, and the
// attribute-only (anchor-free) count cache. Every Fork of a counter
// points at the same sharedState, so Lemma-2 reuse crosses fold and
// worker boundaries.
//
// A counter built from a Seed (NewSeededCounter) has no pair: its counts
// map is the whole anchor-free layer, held under the seed's notations,
// and dims is the index-space size of every node type those matrices
// touch.
type sharedState struct {
	pair *hetnet.AlignedPair // nil on a seeded counter
	sch  *schema.Schema
	// anchorType and its node counts in the two networks — the anchor
	// matrix's shape.
	anchorType hetnet.NodeType
	n1, n2     int
	vocabs     map[hetnet.NodeType]*vocabulary
	dims       map[schema.TypedNode]int // seeded counters only

	adjMu    sync.RWMutex
	adjCache map[string]*sparse.CSR // per (net, rel, orientation)

	mu     sync.Mutex
	counts map[string]*sparse.CSR // anchor-free counts, per notation
	flight map[string]*inflight
	// prox holds the proximity structure of each anchor-free count, keyed
	// by the cached matrix it wraps: those counts never change, so their
	// marginals are computed once per counter family, not once per fold.
	prox map[*sparse.CSR]*Proximity
	// terms holds the per-anchor marginal terms of each extractor layout
	// that has recomputed on the family (anchorterms.go).
	terms []*anchorTerms
}

// Counter evaluates diagram count matrices over an aligned network pair.
// It is safe for concurrent use: concurrent Counts share cached
// sub-results and coalesce duplicate evaluations. SetAnchors must not
// run concurrently with Count on the same counter — use Fork to give
// each fold or worker its own anchor-dependent layer instead.
type Counter struct {
	sh *sharedState

	mu        sync.Mutex
	anchor    *sparse.CSR
	anchorT   *sparse.CSR
	anchorGen int
	counts    map[string]*sparse.CSR // anchor-dependent counts, per notation
	flight    map[string]*inflight

	evals atomic.Int64
	hits  atomic.Int64
}

// NewCounter builds a counter over the pair using its full anchor set as
// the traversable anchor edges. Call SetAnchors to restrict to a
// training fold. The schema is derived from the two networks and the
// standard attribute types.
func NewCounter(pair *hetnet.AlignedPair) (*Counter, error) {
	sch, err := schema.FromNetworks(pair.G1, pair.G2, hetnet.AttributeTypes)
	if err != nil {
		return nil, err
	}
	sh := &sharedState{
		pair:       pair,
		sch:        sch,
		anchorType: pair.AnchorType,
		n1:         pair.G1.NodeCount(pair.AnchorType),
		n2:         pair.G2.NodeCount(pair.AnchorType),
		vocabs:     make(map[hetnet.NodeType]*vocabulary),
		adjCache:   make(map[string]*sparse.CSR),
		counts:     make(map[string]*sparse.CSR),
		flight:     make(map[string]*inflight),
		prox:       make(map[*sparse.CSR]*Proximity),
	}
	for _, t := range hetnet.AttributeTypes {
		v := &vocabulary{index: make(map[string]int)}
		for i := 0; i < pair.G1.NodeCount(t); i++ {
			v.intern(pair.G1.NodeID(t, i))
		}
		for i := 0; i < pair.G2.NodeCount(t); i++ {
			v.intern(pair.G2.NodeID(t, i))
		}
		sh.vocabs[t] = v
	}
	c := &Counter{
		sh:     sh,
		counts: make(map[string]*sparse.CSR),
		flight: make(map[string]*inflight),
	}
	c.SetAnchors(pair.Anchors)
	return c, nil
}

// Fork returns a counter sharing the fold-independent state — schema,
// vocabularies, adjacency matrices, and the attribute-only count cache
// of Lemma 2 — while keeping an independent anchor-dependent layer
// initialized to the parent's current anchor set. Forks are safe to use
// concurrently with each other and with the parent; give each fold or
// worker its own fork so SetAnchors never invalidates a sibling.
func (c *Counter) Fork() *Counter {
	c.mu.Lock()
	a, at := c.anchor, c.anchorT
	c.mu.Unlock()
	return &Counter{
		sh:      c.sh,
		anchor:  a,
		anchorT: at,
		counts:  make(map[string]*sparse.CSR),
		flight:  make(map[string]*inflight),
	}
}

// Schema returns the derived aligned network schema.
func (c *Counter) Schema() *schema.Schema { return c.sh.sch }

// Pair returns the underlying aligned pair; nil on a counter built from
// a seed, which holds none.
func (c *Counter) Pair() *hetnet.AlignedPair { return c.sh.pair }

// Stats returns cumulative evaluation statistics for this counter (a
// fork's statistics start at zero; hits against the shared layer are
// credited to the counter that asked).
func (c *Counter) Stats() Stats {
	return Stats{Evaluations: int(c.evals.Load()), CacheHits: int(c.hits.Load())}
}

// SetAnchors replaces the traversable anchor edge set (the *known*
// positive anchor links; Section III-B counts paths through labeled
// anchors only) and invalidates every cached count that traversed them.
// Attribute-only counts in the shared layer survive. SetAnchors must be
// externally synchronized with Count on the same counter.
func (c *Counter) SetAnchors(anchors []hetnet.Anchor) {
	if anchors == nil && c.sh.pair != nil {
		anchors = c.sh.pair.Anchors // nil means the pair's full set, as for AlignedPair.AnchorMatrix
	}
	am := hetnet.AnchorMatrix(c.sh.n1, c.sh.n2, anchors)
	amT := am.T()
	c.mu.Lock()
	c.anchor = am
	c.anchorT = amT
	c.anchorGen++
	clear(c.counts)
	c.mu.Unlock()
}

// anchorMatrix returns the current 0/1 anchor matrix, one entry per
// distinct labelled pair.
func (c *Counter) anchorMatrix() *sparse.CSR {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.anchor
}

// VocabSize returns the joint vocabulary size of attribute type t.
func (c *Counter) VocabSize(t hetnet.NodeType) int {
	if v, ok := c.sh.vocabs[t]; ok {
		return len(v.ids)
	}
	return 0
}

// net returns the concrete network for a reference.
func (c *Counter) net(r schema.NetworkRef) *hetnet.Network {
	if r == schema.Net1 {
		return c.sh.pair.G1
	}
	return c.sh.pair.G2
}

// adjacency returns the (possibly attribute-remapped) adjacency of rel in
// network ref, oriented source→target of the declared relation. Results
// are cached in the shared layer; a concurrent miss may compute the
// matrix twice, but both results are identical and one wins the cache.
func (c *Counter) adjacency(ref schema.NetworkRef, rel hetnet.LinkType) (*sparse.CSR, error) {
	key := fmt.Sprintf("%v/%s", ref, rel)
	c.sh.adjMu.RLock()
	m, ok := c.sh.adjCache[key]
	c.sh.adjMu.RUnlock()
	if ok {
		return m, nil
	}
	g := c.net(ref)
	srcType, dstType, ok := g.LinkEndpoints(rel)
	if !ok {
		return nil, fmt.Errorf("metadiag: relation %q not declared in %q", rel, g.Name())
	}
	if vocab, shared := c.sh.vocabs[dstType]; shared {
		// Attribute association: remap destination indices onto the joint
		// vocabulary so both networks' matrices share a column space.
		b := sparse.NewBuilder(g.NodeCount(srcType), len(vocab.ids))
		var buildErr error
		g.Links(rel, func(from, to int) {
			id := g.NodeID(dstType, to)
			j, ok := vocab.index[id]
			if !ok {
				buildErr = fmt.Errorf("metadiag: attribute %q of type %s missing from joint vocabulary", id, dstType)
				return
			}
			b.Add(from, j, 1)
		})
		if buildErr != nil {
			return nil, buildErr
		}
		m = b.Build().Binarize()
	} else {
		var err error
		m, err = g.Adjacency(rel)
		if err != nil {
			return nil, err
		}
	}
	return c.storeAdjacency(key, m), nil
}

// storeAdjacency publishes m under key, returning the first stored
// matrix when a concurrent computation won the race.
func (c *Counter) storeAdjacency(key string, m *sparse.CSR) *sparse.CSR {
	c.sh.adjMu.Lock()
	defer c.sh.adjMu.Unlock()
	if prev, ok := c.sh.adjCache[key]; ok {
		return prev
	}
	c.sh.adjCache[key] = m
	return m
}

// adjacencyOriented returns the adjacency oriented along the traversal
// direction of e (transposed for reverse traversals), cached.
func (c *Counter) adjacencyOriented(e schema.Edge) (*sparse.CSR, error) {
	if e.Rel == schema.Anchor {
		c.mu.Lock()
		a, at := c.anchor, c.anchorT
		c.mu.Unlock()
		if e.Forward {
			return a, nil
		}
		return at, nil
	}
	ref := e.Net()
	base, err := c.adjacency(ref, e.Rel)
	if err != nil {
		return nil, err
	}
	if e.Forward {
		return base, nil
	}
	key := fmt.Sprintf("%v/%s/T", ref, e.Rel)
	c.sh.adjMu.RLock()
	m, ok := c.sh.adjCache[key]
	c.sh.adjMu.RUnlock()
	if ok {
		return m, nil
	}
	return c.storeAdjacency(key, base.T()), nil
}

// UsesAnchor reports whether the diagram traverses the anchor relation
// (and therefore depends on the training anchor set).
func UsesAnchor(d schema.Diagram) bool {
	switch v := d.(type) {
	case schema.Edge:
		return v.Rel == schema.Anchor
	case schema.MetaPath:
		for _, e := range v.Edges {
			if e.Rel == schema.Anchor {
				return true
			}
		}
		return false
	case schema.Series:
		for _, p := range v.Parts {
			if UsesAnchor(p) {
				return true
			}
		}
		return false
	case schema.Parallel:
		for _, p := range v.Parts {
			if UsesAnchor(p) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("metadiag: UsesAnchor of unknown diagram type %T", d))
	}
}

// Count returns the instance count matrix of diagram d, validated
// against the schema, with memoized sub-diagram reuse.
func (c *Counter) Count(d schema.Diagram) (*sparse.CSR, error) {
	if err := d.Validate(c.sh.sch); err != nil {
		return nil, err
	}
	return c.eval(d)
}

// unwrap strips the wrappers that share their notation with their
// content — a MetaPath with its Series form, a single-part Series or
// Parallel with its part.
func unwrap(d schema.Diagram) schema.Diagram {
	for {
		switch v := d.(type) {
		case schema.MetaPath:
			d = v.AsDiagram()
			continue
		case schema.Series:
			if len(v.Parts) == 1 {
				d = v.Parts[0]
				continue
			}
		case schema.Parallel:
			if len(v.Parts) == 1 {
				d = v.Parts[0]
				continue
			}
		}
		return d
	}
}

// reverse returns d read from its sink to its source — every edge
// flipped, a Series' parts in reverse order — whose count is the
// transpose of d's.
func reverse(d schema.Diagram) schema.Diagram {
	switch v := d.(type) {
	case schema.Edge:
		return schema.Edge{Rel: v.Rel, From: v.To, To: v.From, Forward: !v.Forward}
	case schema.MetaPath:
		return reverse(v.AsDiagram())
	case schema.Series:
		parts := make([]schema.Diagram, len(v.Parts))
		for i, p := range v.Parts {
			parts[len(parts)-1-i] = reverse(p)
		}
		return schema.Series{Parts: parts}
	case schema.Parallel:
		parts := make([]schema.Diagram, len(v.Parts))
		for i, p := range v.Parts {
			parts[i] = reverse(p)
		}
		return schema.Parallel{Parts: parts}
	default:
		panic(fmt.Sprintf("metadiag: reverse of unknown diagram type %T", d))
	}
}

// eval routes a sub-diagram to the appropriate cache layer: anchor-free
// diagrams to the shared layer (reused across every fork and anchor
// set), anchor-dependent ones to this counter's private layer.
func (c *Counter) eval(d schema.Diagram) (*sparse.CSR, error) {
	// Keyed under the unwrapped form, so the single-flight never waits on
	// an entry registered by its own evaluation.
	d = unwrap(d)
	key := d.Notation()
	if UsesAnchor(d) {
		return c.evalIn(d, key, &c.mu, c.counts, c.flight, &c.anchorGen)
	}
	if c.sh.pair == nil {
		return c.seeded(d, key)
	}
	return c.evalIn(d, key, &c.sh.mu, c.sh.counts, c.sh.flight, nil)
}

// seeded answers an anchor-free diagram on a counter built from a seed.
// The seed is that counter's whole shared layer: a notation it does not
// hold is an error naming it — never a recount, there is no network to
// recount from, and never a zero matrix. The shape is checked against
// the diagram's own endpoints, so a seed that filed a matrix under the
// wrong notation fails here instead of inside the multiply that reads it.
func (c *Counter) seeded(d schema.Diagram, key string) (*sparse.CSR, error) {
	c.sh.mu.Lock()
	m, ok := c.sh.counts[key]
	c.sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("metadiag: seed holds no matrix for %q", key)
	}
	if r, cl := m.Dims(); r != c.sh.dims[d.Source()] || cl != c.sh.dims[d.Sink()] {
		return nil, fmt.Errorf("metadiag: seed matrix %q is %dx%d, its endpoints %s and %s are %d and %d",
			key, r, cl, d.Source(), d.Sink(), c.sh.dims[d.Source()], c.sh.dims[d.Sink()])
	}
	c.hits.Add(1)
	mCacheHits.Inc()
	return m, nil
}

// evalIn answers key from one cache layer with per-notation
// single-flight: the first caller computes, concurrent callers for the
// same notation wait and share the result. genPtr, when non-nil, is read
// under mu and the result is only cached if the generation is unchanged
// at store time (SetAnchors bumps it, so a racing stale evaluation is
// returned to its caller but never poisons the fresh cache).
func (c *Counter) evalIn(d schema.Diagram, key string, mu *sync.Mutex, counts map[string]*sparse.CSR, flights map[string]*inflight, genPtr *int) (*sparse.CSR, error) {
	mu.Lock()
	if m, ok := counts[key]; ok {
		mu.Unlock()
		c.hits.Add(1)
		mCacheHits.Inc()
		return m, nil
	}
	if f, ok := flights[key]; ok {
		mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		c.hits.Add(1)
		mCacheHits.Inc()
		return f.m, nil
	}
	startGen := 0
	if genPtr != nil {
		startGen = *genPtr
	}
	f := &inflight{done: make(chan struct{})}
	flights[key] = f
	mu.Unlock()

	c.evals.Add(1)
	mCacheMisses.Inc()
	f.m, f.err = c.compute(d)

	mu.Lock()
	if f.err == nil && (genPtr == nil || *genPtr == startGen) {
		counts[key] = f.m
	}
	delete(flights, key)
	mu.Unlock()
	close(f.done)
	return f.m, f.err
}

// compute evaluates one diagram node, recursing through eval so every
// sub-diagram passes the cache.
func (c *Counter) compute(d schema.Diagram) (*sparse.CSR, error) {
	switch v := d.(type) {
	case schema.Edge:
		return c.adjacencyOriented(v)
	case schema.MetaPath:
		// Unreachable via eval (which normalizes paths), kept for direct
		// callers.
		return c.eval(v.AsDiagram())
	case schema.Series:
		// An anchor-free Series hands each joint-stackable part to Chain as
		// its two joint factors, so the stack's own count is never built or
		// cached; one that traverses an anchor keeps the stack in the shared
		// layer, where SetAnchors does not reach it.
		joint := !UsesAnchor(d)
		parts := make([]*sparse.CSR, 0, len(v.Parts)+1)
		for _, p := range v.Parts {
			if par, ok := unwrap(p).(schema.Parallel); ok && joint {
				ja, jb, ok, err := c.jointFactors(par)
				if err != nil {
					return nil, err
				}
				if ok {
					parts = append(parts, ja, jb)
					continue
				}
			}
			m, err := c.eval(p)
			if err != nil {
				return nil, err
			}
			parts = append(parts, m)
		}
		return sparse.Chain(parts...), nil
	case schema.Parallel:
		ja, jb, ok, err := c.jointFactors(v)
		if err != nil {
			return nil, err
		}
		if ok {
			return sparse.Chain(ja, jb), nil
		}
		var acc *sparse.CSR
		for _, p := range v.Parts {
			pm, err := c.eval(p)
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = pm
			} else {
				acc = sparse.Hadamard(acc, pm)
			}
		}
		return acc, nil
	default:
		return nil, fmt.Errorf("metadiag: cannot evaluate diagram type %T", d)
	}
}

// jointFactors returns the joint factors of a Parallel whose every part
// is a two-edge, anchor-free Series X→mₖ→Y — the stacked attribute round
// trips of Ψ^a², a post pair "sharing both a timestamp and a location" —
// so that their product through the joint middle tuple
// (sparse.JointFactors) is the Parallel's count. It reports false when
// some part has another shape, before evaluating anything, or when the
// exact flop comparison prefers the separate products; the Parallel is
// then evaluated part by part and folded by Hadamard (a Series that asked
// first evaluates it through eval, which asks again and declines again).
// Both sides are read from the adjacency cache — the X side along its
// traversal, the Y side against it, which is the orientation the joint
// product joins.
func (c *Counter) jointFactors(d schema.Parallel) (ja, jb *sparse.CSR, ok bool, err error) {
	edges := make([][2]schema.Edge, len(d.Parts))
	for k, p := range d.Parts {
		s, ok := p.(schema.Series)
		if !ok || len(s.Parts) != 2 {
			return nil, nil, false, nil
		}
		for side, sp := range s.Parts {
			e, ok := sp.(schema.Edge)
			if !ok || e.Rel == schema.Anchor {
				return nil, nil, false, nil
			}
			edges[k][side] = e
		}
	}
	as, bts := make([]*sparse.CSR, len(edges)), make([]*sparse.CSR, len(edges))
	for k, e := range edges {
		if as[k], err = c.adjacencyOriented(e[0]); err != nil {
			return nil, nil, false, err
		}
		if bts[k], err = c.adjacencyOriented(reverse(e[1]).(schema.Edge)); err != nil {
			return nil, nil, false, err
		}
	}
	ja, jb, ok = sparse.JointFactors(as, bts)
	return ja, jb, ok, nil
}
