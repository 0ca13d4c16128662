package metadiag

import (
	"runtime"
	"slices"
	"sync"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// anchorTerms is the stored form of the stacked marginals, one level
// below Lemma 2: a count pre·A·post is linear in the anchor matrix A, so
// the row and column sums of (pre·A·post) ⊙ d are sums, over the
// labelled anchors, of per-anchor terms no fold changes
// (sparse.AnchorTerms). The layer holds them for one layout — the
// stacked products of an extractor's library, in its order — in the
// counter family's shared state, so every fork and every later fold
// reads them.
//
// An anchor is walked (sparse.MatMulMarginals, as a cold counter does)
// the first time the family labels it; only its sighting is kept. The
// second time its terms are computed and stored — one slab per anchor,
// values only, in layout order: for each product and each d stacked on
// it, the row terms over preᵀ's row a1, then the column terms over
// post's row a2. Every later fold that labels it reads the slab. A fold
// whose anchors are all new therefore costs the walk and nothing else,
// and a rotating fold on a warm aligner stops probing the stacked counts
// once it has been round twice. The sums are the walk's floats: every
// term and partial sum is an integer below 2⁵³ (see sparse/factored.go).
type anchorTerms struct {
	// Per stacked product: its pre and post factors, pre's diagram, and
	// the counts stacked on it — all of the shared layer, so stable per
	// family.
	pre, post []*sparse.CSR
	preD      []schema.Diagram
	ds        [][]*sparse.CSR
	stackings int // Σ len(ds)

	transposeOnce sync.Once
	preT          []*sparse.CSR

	*termStore
}

// termStore is what anchorTerms holds per anchor. It is its own
// allocation so that the finalizer returning its bytes to the gauge
// keeps nothing else alive: not the layer's count matrices.
type termStore struct {
	mu sync.Mutex
	// slabs holds an entry per anchor pair the family has labelled: nil
	// after the first sighting, the anchor's terms from the second.
	slabs map[hetnet.Anchor][]float64
	bytes int64 // of the stored slabs
}

// heldAnchor is a labelled anchor whose terms the layer holds.
type heldAnchor struct {
	a    hetnet.Anchor
	slab []float64
}

// termsFor returns the family's stored layer for the stacked products
// ps, creating it on first ask. Extractors over one library find the
// same layer: the factors are the shared layer's matrices, so equal
// pointers are equal notations. A layer's bytes leave the gauge with
// the family.
func (sh *sharedState) termsFor(ps []*product) *anchorTerms {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, t := range sh.terms {
		if t.holds(ps) {
			return t
		}
	}
	t := &anchorTerms{termStore: &termStore{slabs: make(map[hetnet.Anchor][]float64)}}
	for _, p := range ps {
		t.pre, t.post, t.preD, t.ds = append(t.pre, p.pre), append(t.post, p.y), append(t.preD, p.preD), append(t.ds, p.ds)
		t.stackings += len(p.ds)
	}
	runtime.SetFinalizer(t.termStore, func(s *termStore) { mAnchorTermsBytes.Add(-s.bytes) })
	sh.terms = append(sh.terms, t)
	return t
}

// holds reports whether t is the layer of the stacked products ps.
func (t *anchorTerms) holds(ps []*product) bool {
	if len(ps) != len(t.pre) {
		return false
	}
	for q, p := range ps {
		if p.pre != t.pre[q] || p.y != t.post[q] || !slices.Equal(p.ds, t.ds[q]) {
			return false
		}
	}
	return true
}

// transposes returns preᵀ of every product, found on first call: the
// count of pre read backwards, from c's shared layer — the library's
// follow orientations and stacked follow pairs are each other's
// transposes, so this costs nothing there — or, where that count cannot
// be had (a seed that does not hold it), pre.T().
func (t *anchorTerms) transposes(c *Counter) []*sparse.CSR {
	t.transposeOnce.Do(func() {
		t.preT = make([]*sparse.CSR, len(t.pre))
		for q, pre := range t.pre {
			var err error
			if t.preT[q], err = c.eval(newNode(reverse(t.preD[q]))); err != nil {
				t.preT[q] = pre.T()
			}
		}
	})
	return t.preT
}

// split sorts c's current anchors — its 0/1 anchor matrix, one entry per
// distinct pair — by what the layer has seen of them. An anchor it has
// never seen is marked seen and goes to the walk; one seen once has its
// terms computed and stored; one stored is read. walk is the anchor
// matrix of the first group, nil when that is all of them; held are the
// other two groups with their terms.
func (t *anchorTerms) split(c *Counter) (walk *sparse.CSR, held []heldAnchor) {
	am := c.anchorMatrix()
	var fresh, again []hetnet.Anchor
	t.mu.Lock()
	am.Iterate(func(i, j int, _ float64) {
		a := hetnet.Anchor{I: i, J: j}
		switch slab, ok := t.slabs[a]; {
		case !ok:
			t.slabs[a] = nil
			fresh = append(fresh, a)
		case slab == nil:
			again = append(again, a)
		default:
			held = append(held, heldAnchor{a: a, slab: slab})
		}
	})
	t.mu.Unlock()
	mAnchorTermsWalked.Add(int64(len(fresh) * t.stackings))
	mAnchorTermsStored.Add(int64(len(again) * t.stackings))
	mAnchorTermsRead.Add(int64(len(held) * t.stackings))
	if len(again) > 0 {
		held = append(held, t.store(c, again)...)
	}
	if len(fresh) < am.NNZ() {
		b := sparse.NewBuilder(am.Dims())
		for _, a := range fresh {
			b.Add(a.I, a.J, 1)
		}
		walk = b.Build()
	}
	return walk, held
}

// store computes the terms of anchors seen once before, side by side,
// and stores them. A sibling fork that stored an anchor first keeps its
// slab; the two are equal.
func (t *anchorTerms) store(c *Counter, again []hetnet.Anchor) []heldAnchor {
	preT := t.transposes(c)
	width := func(q int, a hetnet.Anchor) int {
		return len(t.ds[q]) * (preT[q].RowNNZ(a.I) + t.post[q].RowNNZ(a.J))
	}
	out := make([]heldAnchor, len(again))
	FanOut(len(again), func(k int) {
		a, n := again[k], 0
		for q := range preT {
			n += width(q, a)
		}
		slab, off := make([]float64, n), 0 // non-nil even when empty: stored
		for q := range preT {
			sparse.AnchorTerms(preT[q], t.post[q], t.ds[q], a.I, a.J, slab[off:off+width(q, a)])
			off += width(q, a)
		}
		out[k] = heldAnchor{a: a, slab: slab}
	})
	var added int64
	t.mu.Lock()
	for k, h := range out {
		if prev := t.slabs[h.a]; prev != nil {
			out[k].slab = prev
			continue
		}
		t.slabs[h.a] = h.slab
		added += 8 * int64(len(h.slab))
	}
	t.bytes += added
	t.mu.Unlock()
	mAnchorTermsBytes.Add(added)
	return out
}

// add adds the held anchors' terms into the stacked sums of ps, the
// layer's products in its order.
func (t *anchorTerms) add(c *Counter, held []heldAnchor, ps []*product) {
	preT := t.transposes(c)
	for _, h := range held {
		off := 0
		for q, p := range ps {
			us, _ := preT[q].RowSlice(h.a.I)
			vs, _ := p.y.RowSlice(h.a.J)
			for k := range p.ds {
				rs, cs := p.rowSums[1+k], p.colSums[1+k]
				for n, u := range us {
					rs[u] += h.slab[off+n]
				}
				off += len(us)
				for n, v := range vs {
					cs[v] += h.slab[off+n]
				}
				off += len(vs)
			}
		}
	}
}
