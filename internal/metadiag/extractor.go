package metadiag

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// Extractor turns a diagram library into per-candidate-link feature
// vectors: one proximity score per diagram, in library order, with an
// optional trailing bias feature fixed at 1 (the paper's "dummy feature"
// absorbing the intercept b into w).
//
// A feature whose diagram has the library's anchor-dependent shape
// (factorise) is held factored: Recompute counts its thin pre∘anchor
// factor and its marginals, FeatureMatrix and FeatureVector its cells at
// the links they are asked for, and no anchor-path product or stacking
// is built. Any other feature goes through Counter.Proximity.
//
// After Recompute (or the first lazy computation), FeatureVector and
// FeatureMatrix are safe for concurrent use; Recompute itself must be
// externally synchronized with readers.
type Extractor struct {
	counter *Counter
	feats   []schema.Named
	forms   []featureForm // feats in canonical form, from the first Recompute on
	bias    bool

	// What Recompute leaves, nil until it has succeeded: every feature's
	// cells and normaliser, the distinct matrices those cells are read
	// from, and the user pair space they all span.
	prox       []feature
	products   []*product
	counts     []*sparse.CSR
	rows, cols int
}

// feature is one proximity as the fill reads it. Its count at (i, j) is
// the product of the cells it names — products[prod]'s, when prod ≥ 0,
// times counts[stack]'s, when stack ≥ 0 — so a product shared by several
// features is evaluated once per link, and so is a stored count, whether
// it is a materialised feature's own or stacked on a product.
type feature struct {
	prod, stack      int
	rowSums, colSums []float64
}

// product is one distinct anchor-path product x·y of the fold, x =
// pre·anchor, with the distinct counts ds some feature stacks on it and
// the marginals of each form: rowSums[0] of x·y itself, rowSums[1+k] of
// (x·y) ⊙ ds[k].
type product struct {
	pre, x, y        *sparse.CSR
	preD             schema.Diagram
	ds               []*sparse.CSR
	rowSums, colSums [][]float64
}

// marginals computes p's row and column sums: two matvecs for the bare
// product, X·(Y·1) and (1ᵀX)·Y, and for everything stacked on it one
// walk of the terms of the anchors walk names — of x itself when walk is
// nil, of pre·walk, as thin as the anchors seen for the first time,
// otherwise, and of nothing when walk is empty. The stored terms of the
// other anchors are added afterwards (anchorTerms.add).
func (p *product) marginals(walk *sparse.CSR) {
	p.rowSums = [][]float64{p.x.MulVec(p.y.RowSums())}
	p.colSums = [][]float64{p.y.TMulVec(p.x.ColSums())}
	if len(p.ds) == 0 {
		return
	}
	var rs, cs [][]float64
	switch {
	case walk == nil:
		rs, cs = sparse.MatMulMarginals(p.x, p.y, p.ds)
	case walk.NNZ() > 0:
		rs, cs = sparse.MatMulMarginals(sparse.MatMul(p.pre, walk), p.y, p.ds)
	default:
		for range p.ds {
			rs, cs = append(rs, make([]float64, p.x.Rows())), append(cs, make([]float64, p.y.Cols()))
		}
	}
	p.rowSums, p.colSums = append(p.rowSums, rs...), append(p.colSums, cs...)
}

// marginals fills every product's row and column sums for the counter's
// current anchors. The stacked ones are split by anchor (anchorTerms):
// an anchor the counter family labels for the first time is walked, a
// second time has its terms stored, and after that only read.
func (e *Extractor) marginals() {
	var stacked []*product
	for _, p := range e.products {
		if len(p.ds) > 0 {
			stacked = append(stacked, p)
		}
	}
	var terms *anchorTerms
	var walk *sparse.CSR
	var held []heldAnchor
	if len(stacked) > 0 {
		terms = e.counter.sh.termsFor(stacked)
		walk, held = terms.split(e.counter)
	}
	FanOut(len(e.products), func(p int) { e.products[p].marginals(walk) })
	if len(held) > 0 {
		terms.add(e.counter, held, stacked)
	}
}

// FanOut runs fn(0), …, fn(n-1) on up to GOMAXPROCS goroutines, each
// taking the next index as it finishes one, and returns when all are
// done: the one parallel-for of the count layer and of the seed codec,
// whose entries encode and decode independently.
func FanOut(n int, fn func(k int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				fn(k)
			}
		}()
	}
	wg.Wait()
}

// NewExtractor prepares an extractor for the given features. Proximity
// matrices are computed on first use; call Recompute after changing the
// counter's anchor set.
func NewExtractor(counter *Counter, feats []schema.Named, bias bool) *Extractor {
	return &Extractor{counter: counter, feats: feats, bias: bias}
}

// Dim returns the feature vector length (diagram count plus bias).
func (e *Extractor) Dim() int {
	if e.bias {
		return len(e.feats) + 1
	}
	return len(e.feats)
}

// Names returns the feature names in vector order.
func (e *Extractor) Names() []string {
	out := make([]string, 0, e.Dim())
	for _, f := range e.feats {
		out = append(out, f.ID)
	}
	if e.bias {
		out = append(out, "BIAS")
	}
	return out
}

// Recompute (re)evaluates every feature against the counter's current
// anchor set, fanning the diagrams out across GOMAXPROCS workers — the
// counter's single-flight cache deduplicates shared sub-diagrams between
// them. Attribute-only diagrams are answered from the counter's shared
// cache. An anchor-dependent one of the factored shape costs its thin
// factor and its marginals: the stacked sums of an anchor the counter
// family has labelled twice before are read from its stored terms, and
// the distinct products are walked side by side, each serially, for the
// rest — every sum is of integers, so none depends on GOMAXPROCS or on
// which anchors were stored. It needs no candidate pool. The first call
// puts every feature in canonical form and keys it, once for the
// extractor's life. On an error the extractor is left with no
// proximities at all — never the previous anchor set's.
func (e *Extractor) Recompute() error {
	e.prox, e.products, e.counts = nil, nil, nil
	if e.forms == nil {
		e.forms = make([]featureForm, len(e.feats))
		for k, f := range e.feats {
			e.forms[k] = newFeatureForm(f.D)
		}
	}
	mats, facs := make([]*Proximity, len(e.feats)), make([]*factored, len(e.feats))
	errs := make([]error, len(e.feats))
	FanOut(len(e.feats), func(k int) { mats[k], facs[k], errs[k] = e.counter.form(&e.forms[k]) })
	for k, err := range errs {
		if err != nil {
			return fmt.Errorf("metadiag: feature %s: %w", e.feats[k].ID, err)
		}
	}
	productOf, countOf := make(map[[2]*sparse.CSR]int), make(map[*sparse.CSR]int)
	count := func(m *sparse.CSR) int {
		c, ok := countOf[m]
		if !ok {
			c = len(e.counts)
			countOf[m], e.counts = c, append(e.counts, m)
		}
		return c
	}
	prox := make([]feature, len(e.feats))
	factoredN := 0
	for k, f := range facs {
		if f == nil {
			m := mats[k]
			prox[k] = feature{prod: -1, stack: count(m.Counts), rowSums: m.RowSums, colSums: m.ColSums}
			continue
		}
		factoredN++
		p, ok := productOf[[2]*sparse.CSR{f.x, f.y}]
		if !ok {
			p = len(e.products)
			productOf[[2]*sparse.CSR{f.x, f.y}], e.products = p, append(e.products, &product{pre: f.pre, preD: f.preD, x: f.x, y: f.y})
		}
		prox[k] = feature{prod: p, stack: -1}
		if f.d != nil {
			prox[k].stack = count(f.d)
			if pr := e.products[p]; !slices.Contains(pr.ds, f.d) {
				pr.ds = append(pr.ds, f.d)
			}
		}
	}
	e.marginals()
	for k, f := range facs {
		if f != nil {
			// Slot 0 is the bare product's; a nil d is in no ds.
			pr := e.products[prox[k].prod]
			slot := 1 + slices.Index(pr.ds, f.d)
			prox[k].rowSums, prox[k].colSums = pr.rowSums[slot], pr.colSums[slot]
		}
	}
	if len(prox) > 0 {
		if m := mats[0]; m != nil {
			e.rows, e.cols = m.Counts.Dims()
		} else {
			e.rows, e.cols = facs[0].x.Rows(), facs[0].y.Cols()
		}
	}
	mProximitiesFactored.Add(int64(factoredN))
	mProximitiesMaterialised.Add(int64(len(prox) - factoredN))
	e.prox = prox
	return nil
}

// ready lazily computes proximities on first access.
func (e *Extractor) ready() error {
	if e.prox == nil {
		return e.Recompute()
	}
	return nil
}

// fill writes the scores of link (i, j), which must lie inside the pair
// space, into out[:len(e.feats)]; cells is scratch for one value per
// product and per count. Each distinct product costs one dot product
// Σₐ x(i,a)·y(a,j), each distinct count one position probe, and every
// feature is the product of at most two of those numbers over its own
// normaliser.
func (e *Extractor) fill(i, j int, out, cells []float64) {
	pv, cv := cells[:len(e.products)], cells[len(e.products):]
	for p, xy := range e.products {
		pv[p] = sparse.MatMulAt(xy.x, xy.y, i, j)
	}
	for c, m := range e.counts {
		cv[c] = m.At(i, j)
	}
	for k := range e.prox {
		f := &e.prox[k]
		cnt := 1.0
		if f.prod >= 0 {
			cnt = pv[f.prod]
		}
		if f.stack >= 0 {
			cnt *= cv[f.stack]
		}
		out[k] = 0
		if cnt != 0 {
			if denom := f.rowSums[i] + f.colSums[j]; denom > 0 {
				out[k] = 2 * cnt / denom
			}
		}
	}
}

// FeatureVector writes the feature vector of candidate link (i, j) into
// out, which must have length Dim(). A link outside the pair space
// scores 0 on every diagram.
func (e *Extractor) FeatureVector(i, j int, out []float64) error {
	if err := e.ready(); err != nil {
		return err
	}
	if len(out) != e.Dim() {
		return fmt.Errorf("metadiag: FeatureVector buffer length %d, want %d", len(out), e.Dim())
	}
	if i < 0 || i >= e.rows || j < 0 || j >= e.cols {
		clear(out)
	} else {
		e.fill(i, j, out, make([]float64, len(e.products)+len(e.counts)))
	}
	if e.bias {
		out[len(out)-1] = 1
	}
	return nil
}

// featureMatrixParallelThreshold is the candidate count below which the
// per-goroutine overhead outweighs fanning the pool out.
const featureMatrixParallelThreshold = 512

// FeatureMatrix builds the design matrix X for a candidate link list:
// row k holds the features of pairs[k], exactly FeatureVector's. This is
// the matrix the ridge step (1-1) and the SVM baselines consume.
//
// The fill costs the pool, not the count matrices it reads, and for a
// factored feature there is no count matrix: its cell is evaluated from
// the factors at the pool's links only (see fill). The pool is visited
// grouped by row, so consecutive links share the rows' cache lines, and
// large pools are cut into contiguous runs across GOMAXPROCS workers.
func (e *Extractor) FeatureMatrix(pairs []hetnet.Anchor) (*linalg.Dense, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	x := linalg.NewDense(len(pairs), e.Dim())
	if len(pairs) == 0 {
		return x, nil
	}
	if e.bias {
		bias := e.Dim() - 1
		for k := range pairs {
			x.Set(k, bias, 1)
		}
	}
	if len(e.prox) == 0 {
		return x, nil
	}
	order, err := byRow(pairs, e.rows, e.cols)
	if err != nil {
		return nil, err
	}
	runs := 1
	if len(pairs) >= featureMatrixParallelThreshold {
		runs = runtime.GOMAXPROCS(0)
	}
	per := (len(order) + runs - 1) / runs
	FanOut(runs, func(r int) {
		cells := make([]float64, len(e.products)+len(e.counts))
		for _, k := range order[min(r*per, len(order)):min((r+1)*per, len(order))] {
			e.fill(pairs[k].I, pairs[k].J, x.RowView(int(k)), cells)
		}
	})
	return x, nil
}

// byRow returns the indices of pairs grouped by their row I in pool
// order within a row (a counting sort), after checking every pair
// against the shape all of a counter's user-to-user counts share.
func byRow(pairs []hetnet.Anchor, rows, cols int) ([]int32, error) {
	start := make([]int32, rows+1)
	for _, l := range pairs {
		if l.I < 0 || l.I >= rows || l.J < 0 || l.J >= cols {
			return nil, fmt.Errorf("metadiag: candidate link (%d,%d) outside the %dx%d user pair space", l.I, l.J, rows, cols)
		}
		start[l.I+1]++
	}
	for i := 1; i <= rows; i++ {
		start[i] += start[i-1]
	}
	order := make([]int32, len(pairs))
	for k, l := range pairs {
		order[start[l.I]] = int32(k)
		start[l.I]++
	}
	return order, nil
}
