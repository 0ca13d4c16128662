package partition

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
)

// seedStride separates the per-partition training seeds. Partition 0
// keeps the configured seed unchanged, so a single-partition plan is
// bit-identical to the monolithic training loop.
const seedStride = 1_000_003

// TrainOptions configures the per-partition training pipelines.
type TrainOptions struct {
	// Features is the meta diagram feature list every partition extracts.
	Features []schema.Named
	// Core is the training configuration. Core.Budget is not read — each
	// partition trains on its plan-assigned Part.Budget — and Core.Seed
	// is the base seed, offset per partition.
	Core core.Config
	// Workers caps concurrent partition pipelines; default
	// min(K, GOMAXPROCS). Callers stacking Align under their own worker
	// pools (one cell per worker, say) should pass 1 to avoid
	// multiplying heavy pipelines.
	Workers int
}

// PartReport is the audit trail of one partition's pipeline.
type PartReport struct {
	Index      int
	TrainPos   int
	Candidates int
	Budget     int
	Queries    int
	Elapsed    time.Duration
}

// Result is a merged partitioned alignment. It satisfies the same
// read-side contract as core's result (Label / WasQueried / predicted
// anchors), so evaluation code treats both uniformly.
type Result struct {
	anchors      []hetnet.Anchor
	labels       map[int64]float64
	scores       map[int64]float64
	queried      map[int64]bool
	queriedLinks map[int64]LabeledLink

	// Rejected counts positive predictions dropped by the global
	// one-to-one reconciliation (cross-partition conflicts).
	Rejected int
	// ShardWeights holds each partition's trained feature weight vector,
	// keyed by Part.Index (layout: the run's feature set followed by the
	// bias term). There is deliberately no single global weight vector —
	// each shard trained its own ridge model on its own pool — so
	// snapshot/serving consumers persist all of them and pick per query.
	// For a multi-round session result these are the FINAL round's
	// models.
	ShardWeights map[int][]float64
	// Reports holds one entry per partition, in partition order — and,
	// for a result returned by a multi-round session driver, one entry
	// per partition per round, so QueryCount spans the whole session.
	Reports []PartReport
	// Elapsed is the wall time of Align: fork, extract, train, merge
	// (planning time is the caller's, via BuildPlan).
	Elapsed time.Duration
}

// PredictedAnchors returns the merged positive links, sorted by (I, J).
func (r *Result) PredictedAnchors() []hetnet.Anchor {
	out := make([]hetnet.Anchor, len(r.anchors))
	copy(out, r.anchors)
	return out
}

// Label returns the final label of link (i, j) and whether the link was
// part of any partition's candidate pool.
func (r *Result) Label(i, j int) (float64, bool) {
	v, ok := r.labels[hetnet.Key(i, j)]
	return v, ok
}

// Score returns the best per-partition raw score of link (i, j).
func (r *Result) Score(i, j int) (float64, bool) {
	v, ok := r.scores[hetnet.Key(i, j)]
	return v, ok
}

// WasQueried reports whether any partition labeled (i, j) by the oracle.
func (r *Result) WasQueried(i, j int) bool {
	return r.queried[hetnet.Key(i, j)]
}

// QueriedLabels returns every oracle-labeled pool link with its answer,
// in canonical (I, J) order — including prelabels carried in from
// earlier rounds. A multi-round driver feeds these back into the stable
// plan (Plan.AppendLabels) so the next round trains on them as fixed
// labels; AppendLabels dedups, so re-feeding old labels is harmless.
func (r *Result) QueriedLabels() []LabeledLink {
	out := make([]LabeledLink, 0, len(r.queriedLinks))
	for _, l := range r.queriedLinks {
		out = append(out, l)
	}
	sortLabels(out)
	return out
}

// Entry is one pool link's merged read-side record — the unit a
// snapshot of a partitioned alignment persists.
type Entry struct {
	Link hetnet.Anchor
	// Label is the merged final label (1 for reconciled positives).
	Label float64
	// Score is the best per-partition raw score; HasScore is false for
	// links every partition scored NaN.
	Score    float64
	HasScore bool
	// Queried reports an oracle-labeled link (including prelabels of
	// earlier session rounds).
	Queried bool
}

// Entries returns every pool link's merged record in canonical (I, J)
// order — the full read side of the result, for persistence.
func (r *Result) Entries() []Entry {
	out := make([]Entry, 0, len(r.labels))
	for key, label := range r.labels {
		i, j := hetnet.UnpackKey(key)
		e := Entry{Link: hetnet.Anchor{I: i, J: j}, Label: label, Queried: r.queried[key]}
		e.Score, e.HasScore = r.scores[key]
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Link.I != out[b].Link.I {
			return out[a].Link.I < out[b].Link.I
		}
		return out[a].Link.J < out[b].Link.J
	})
	return out
}

// QueryCount returns the total oracle queries spent across partitions.
func (r *Result) QueryCount() int {
	n := 0
	for _, rep := range r.Reports {
		n += rep.Queries
	}
	return n
}

// lockedOracle serializes oracle access across partition pipelines —
// the Oracle contract does not require thread safety (CountingOracle,
// for one, keeps a counter).
type lockedOracle struct {
	mu    sync.Mutex
	inner active.Oracle
}

func (o *lockedOracle) Label(a hetnet.Anchor) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inner.Label(a)
}

// partOutput is one partition pipeline's raw result.
type partOutput struct {
	part  *Part
	links []hetnet.Anchor
	res   *core.Result
}

// Align runs the counter→extractor→core.Train pipeline for every
// partition of the plan concurrently — each on a Fork of base, so the
// attribute-only count layer is shared while anchor-dependent counts
// stay partition-local — and merges the per-partition predictions into
// one globally one-to-one result via score-greedy union-find
// reconciliation. The oracle may be nil when the total budget is zero.
// Oracle calls are serialized but arrive in nondeterministic order
// across partitions; every oracle in this module answers as a pure
// function of the link (TruthOracle, hash-seeded NoisyOracle), which
// keeps multi-partition runs reproducible — an oracle whose answers
// depend on CALL ORDER would not be.
func Align(base *metadiag.Counter, plan *Plan, opts TrainOptions, oracle active.Oracle) (*Result, error) {
	if base == nil {
		return nil, fmt.Errorf("partition: nil base counter")
	}
	if plan == nil || len(plan.Parts) == 0 {
		return nil, fmt.Errorf("partition: empty plan")
	}
	start := time.Now()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan.Parts) {
		workers = len(plan.Parts)
	}
	if oracle != nil && len(plan.Parts) > 1 {
		oracle = &lockedOracle{inner: oracle}
	}

	outs := make([]partOutput, len(plan.Parts))
	errs := make([]error, len(plan.Parts))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for p := range plan.Parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outs[p], errs[p] = runPart(base, &plan.Parts[p], opts, oracle)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", p, err)
		}
	}
	res := merge(outs)
	res.Elapsed = time.Since(start)
	return res, nil
}

// runPart executes one partition's pipeline on a fresh fork of base.
func runPart(base *metadiag.Counter, part *Part, opts TrainOptions, oracle active.Oracle) (partOutput, error) {
	t0 := time.Now()
	counter := base.Fork()
	counter.SetAnchors(part.TrainPos)
	links, res, err := TrainPart(counter, part, opts, oracle)
	if err != nil {
		return partOutput{}, err
	}
	out := partOutput{part: part, links: links, res: res}
	out.res.Elapsed = time.Since(t0) // include fork+extract, the real per-partition cost
	return out, nil
}

// TrainPart runs one shard's counter→extractor→training pipeline on a
// counter whose anchors are already restricted to part.TrainPos:
// recompute features, assemble the deduplicated pool (TrainPos first,
// then candidates in order), and train on the part's budget slice with
// the part-offset seed. Every executor runs these two halves — the
// in-process path on a Fork of the base counter, the distributed worker
// on a fork of its seeded counter, the monolithic Aligner as a single
// part on its long-lived counter — so there is one pipeline to keep
// right.
func TrainPart(counter *metadiag.Counter, part *Part, opts TrainOptions, oracle active.Oracle) ([]hetnet.Anchor, *core.Result, error) {
	prep, err := PreparePart(counter, part, opts.Features)
	if err != nil {
		return nil, nil, err
	}
	res, err := prep.Train(part, opts.Core, oracle)
	if err != nil {
		return nil, nil, err
	}
	return prep.Links, res, nil
}

// Prepared is the label-independent half of a shard pipeline: the
// recomputed features and the assembled pool. Labels — the budget slice,
// the seed, the prelabeled answers of earlier rounds — only enter at
// Train time, so a session worker that keeps a shard's Prepared warm
// across rounds pays counting and feature extraction once and re-runs
// only the training loop as labels accumulate.
type Prepared struct {
	// Links is the deduplicated pool: TrainPos first, then candidates in
	// order (the contract every vote/label index downstream relies on).
	Links []hetnet.Anchor

	x        *linalg.Dense
	poolIdx  map[int64]int
	trainPos int
}

// PreparePart runs the counting and feature-extraction half of TrainPart
// and returns the reusable Prepared state. The counter's anchors must
// already be restricted to part.TrainPos.
func PreparePart(counter *metadiag.Counter, part *Part, features []schema.Named) (*Prepared, error) {
	return PrepareWith(metadiag.NewExtractor(counter, features, true), part)
}

// PrepareWith is PreparePart on a caller-owned extractor, which it
// recomputes against the counter's current anchors — for a caller that
// keeps reading feature vectors from the extractor after training.
func PrepareWith(ext *metadiag.Extractor, part *Part) (*Prepared, error) {
	if err := ext.Recompute(); err != nil {
		return nil, err
	}
	links := make([]hetnet.Anchor, 0, len(part.TrainPos)+len(part.Candidates))
	links = append(links, part.TrainPos...)
	seen := make(map[int64]int, len(links))
	for i, l := range part.TrainPos {
		seen[hetnet.Key(l.I, l.J)] = i
	}
	for _, l := range part.Candidates {
		if _, ok := seen[hetnet.Key(l.I, l.J)]; !ok {
			seen[hetnet.Key(l.I, l.J)] = len(links)
			links = append(links, l)
		}
	}
	x, err := ext.FeatureMatrix(links)
	if err != nil {
		return nil, err
	}
	return &Prepared{Links: links, x: x, poolIdx: seen, trainPos: len(part.TrainPos)}, nil
}

// Train runs the training half on the prepared pool: the part supplies
// this round's budget slice and accumulated prelabels, cfg the shared
// training configuration (cfg.Seed is the base seed, offset by the
// part's index here). Train may be called repeatedly on one Prepared —
// nothing in it is mutated.
func (pp *Prepared) Train(part *Part, cfg core.Config, oracle active.Oracle) (*core.Result, error) {
	cfg.Budget = part.Budget
	cfg.Seed += int64(part.Index) * seedStride
	if cfg.Budget == 0 {
		cfg.Strategy = nil
	}
	labeled := make([]int, pp.trainPos)
	for i := range labeled {
		labeled[i] = i
	}
	var preIdx []int
	var preY []float64
	for _, l := range part.Prelabeled {
		idx, ok := pp.poolIdx[hetnet.Key(l.Link.I, l.Link.J)]
		if !ok {
			return nil, fmt.Errorf("partition: prelabeled link (%d,%d) not in part %d's pool", l.Link.I, l.Link.J, part.Index)
		}
		preIdx = append(preIdx, idx)
		preY = append(preY, l.Label)
	}
	return core.Train(core.Problem{
		Links:       pp.Links,
		X:           pp.x,
		LabeledPos:  labeled,
		Prelabeled:  preIdx,
		PrelabeledY: preY,
		Oracle:      oracle,
	}, cfg)
}

// merge reconciles the per-partition predictions into one globally
// one-to-one label assignment by streaming every pool link's vote
// through a Merger (see merger.go for the precedence rules).
func merge(outs []partOutput) *Result {
	m := NewMerger()
	var reports []PartReport
	weights := make(map[int][]float64, len(outs))
	for _, out := range outs {
		reports = append(reports, PartReport{
			Index:      out.part.Index,
			TrainPos:   len(out.part.TrainPos),
			Candidates: len(out.part.Candidates),
			Budget:     out.part.Budget,
			Queries:    out.res.QueryCount(),
			Elapsed:    out.res.Elapsed,
		})
		weights[out.part.Index] = append([]float64(nil), out.res.W...)
		for _, v := range PartVotes(out.part, out.links, out.res) {
			m.Add(v)
		}
	}
	res := m.Finish()
	res.Reports = reports
	res.ShardWeights = weights
	return res
}

// PartVotes extracts one shard pipeline's votes from its training
// result: one vote per pool link, in pool order. The distributed worker
// streams exactly these votes (translated to original indices) back to
// the coordinator, so the in-process and remote merge inputs coincide.
func PartVotes(part *Part, links []hetnet.Anchor, res *core.Result) []Vote {
	votes := make([]Vote, len(links))
	for idx, l := range links {
		votes[idx] = Vote{
			Link:    l,
			Label:   res.Y[idx],
			Score:   res.Scores[idx],
			Queried: res.WasQueried(l.I, l.J),
			Fixed:   idx < len(part.TrainPos),
		}
	}
	return votes
}
