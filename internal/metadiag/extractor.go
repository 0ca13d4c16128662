package metadiag

import (
	"fmt"
	"runtime"
	"sync"

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
// After Recompute (or the first lazy computation), FeatureVector and
// FeatureMatrix are safe for concurrent use; Recompute itself must be
// externally synchronized with readers.
type Extractor struct {
	counter *Counter
	feats   []schema.Named
	prox    []*Proximity
	bias    bool
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

// Recompute (re)evaluates every diagram's proximity structure against
// the counter's current anchor set, fanning the diagrams out across
// GOMAXPROCS workers — the counter's single-flight cache deduplicates
// shared sub-diagrams between them. Attribute-only diagrams are
// answered from the counter's shared cache; anchor-dependent ones are
// recounted.
func (e *Extractor) Recompute() error {
	prox := make([]*Proximity, len(e.feats))
	errs := make([]error, len(e.feats))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(e.feats) {
		workers = len(e.feats)
	}
	if workers <= 1 {
		for k, f := range e.feats {
			p, err := e.counter.Proximity(f.D)
			if err != nil {
				return fmt.Errorf("metadiag: feature %s: %w", f.ID, err)
			}
			prox[k] = p
		}
		e.prox = prox
		return nil
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for k := range e.feats {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			prox[k], errs[k] = e.counter.Proximity(e.feats[k].D)
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return fmt.Errorf("metadiag: feature %s: %w", e.feats[k].ID, err)
		}
	}
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

// FeatureVector writes the feature vector of candidate link (i, j) into
// out, which must have length Dim().
func (e *Extractor) FeatureVector(i, j int, out []float64) error {
	if err := e.ready(); err != nil {
		return err
	}
	if len(out) != e.Dim() {
		return fmt.Errorf("metadiag: FeatureVector buffer length %d, want %d", len(out), e.Dim())
	}
	for k, p := range e.prox {
		out[k] = p.Score(i, j)
	}
	if e.bias {
		out[len(out)-1] = 1
	}
	return nil
}

// featureMatrixParallelThreshold is the candidate count below which the
// per-goroutine overhead outweighs feature-level fan-out.
const featureMatrixParallelThreshold = 512

// FeatureMatrix builds the design matrix X for a candidate link list:
// row k holds the features of pairs[k]. This is the matrix the ridge
// step (1-1) and the SVM baselines consume.
//
// Every cell is one position probe into the proximity's count matrix
// (sparse.CSR.At): O(1) through the rank index a stacking left on a
// dense attribute count, a binary search within a short anchor-path row
// otherwise — the fill costs the pool, not the count matrices it reads.
// The pool is visited grouped by row, so consecutive probes share the
// row's cache lines. Large pools fan the proximities out across
// GOMAXPROCS workers. The result is identical to row-by-row
// FeatureVector construction.
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
	order, err := byRow(pairs, e.prox[0].Counts)
	if err != nil {
		return nil, err
	}
	fill := func(feat int) {
		p := e.prox[feat]
		for _, k := range order {
			l := pairs[k]
			if cnt := p.Counts.At(l.I, l.J); cnt != 0 {
				if denom := p.RowSums[l.I] + p.ColSums[l.J]; denom > 0 {
					x.Set(int(k), feat, 2*cnt/denom)
				}
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(e.feats) {
		workers = len(e.feats)
	}
	if workers <= 1 || len(pairs) < featureMatrixParallelThreshold {
		for feat := range e.prox {
			fill(feat)
		}
		return x, nil
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for feat := range e.prox {
		wg.Add(1)
		go func(feat int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fill(feat)
		}(feat)
	}
	wg.Wait()
	return x, nil
}

// byRow returns the indices of pairs grouped by their row I in pool
// order within a row (a counting sort), after checking every pair
// against the shape all of a counter's user-to-user counts share.
func byRow(pairs []hetnet.Anchor, counts *sparse.CSR) ([]int32, error) {
	rows, cols := counts.Dims()
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
