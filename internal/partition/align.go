package partition

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
	// Elapsed is the part's own busy time this round: its anchor recount
	// and feature fill (first round only — later rounds keep the filled
	// matrix) plus its training loop. Time the part spent waiting — for a
	// worker slot, or for the planner to finish assigning candidates
	// while its count was already done — is not in it.
	Elapsed time.Duration
}

// Result is a merged partitioned alignment. It satisfies the same
// read-side contract as core's result (Label / WasQueried / predicted
// anchors), so evaluation code treats both uniformly.
type Result struct {
	anchors []hetnet.Anchor
	recs    []linkRecord
	// index maps a link key to its record in recs; a one-part merge
	// leaves it to the first lookup (indexOnce).
	index     map[int64]int32
	indexOnce sync.Once

	// Rejected counts positive predictions dropped by the global
	// one-to-one greedy (cross-partition conflicts).
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
	// Elapsed is the wall time of the round: from Begin for the first
	// Finish (fork, count, fill, train, merge — and whatever the caller
	// did between the two, which for Align is nothing), from the Finish
	// call for later rounds.
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
	rec, ok := r.record(i, j)
	return rec.Label, ok
}

// Score returns the best per-partition raw score of link (i, j).
func (r *Result) Score(i, j int) (float64, bool) {
	rec, _ := r.record(i, j)
	return rec.Score, rec.HasScore
}

// WasQueried reports whether any partition labeled (i, j) by the oracle.
func (r *Result) WasQueried(i, j int) bool {
	rec, _ := r.record(i, j)
	return rec.Queried
}

// record is link (i, j)'s merge record; the zero record when no
// partition's pool held the link.
func (r *Result) record(i, j int) (linkRecord, bool) {
	r.indexOnce.Do(func() {
		if r.index == nil {
			r.index = make(map[int64]int32, len(r.recs))
			for at, rec := range r.recs {
				r.index[hetnet.Key(rec.Link.I, rec.Link.J)] = int32(at)
			}
		}
	})
	at, ok := r.index[hetnet.Key(i, j)]
	if !ok {
		return linkRecord{}, false
	}
	return r.recs[at], true
}

// Weights returns the learned feature weights of partition 0 (layout:
// the run's feature set followed by the bias term) — the one model of a
// single-partition run.
func (r *Result) Weights() []float64 { return r.ShardWeights[0] }

// Predictor builds an inductive scorer from Weights. threshold ≤ 0 uses
// the paper's ½.
func (r *Result) Predictor(threshold float64) (*core.Predictor, error) {
	return core.NewPredictorFromWeights(r.Weights(), threshold)
}

// QueriedLabels returns every oracle-labeled pool link with its answer,
// in canonical (I, J) order — including prelabels carried in from
// earlier rounds. A multi-round driver feeds these back into the stable
// plan (Plan.AppendLabels) so the next round trains on them as fixed
// labels; AppendLabels dedups, so re-feeding old labels is harmless.
func (r *Result) QueriedLabels() []LabeledLink {
	out := []LabeledLink{}
	for _, rec := range r.recs {
		if rec.Queried {
			out = append(out, LabeledLink{Link: rec.Link, Label: rec.answer})
		}
	}
	sortLabels(out)
	return out
}

// Entry is one pool link's merged read-side record — the unit a
// snapshot of a partitioned alignment persists.
type Entry struct {
	Link hetnet.Anchor
	// Label is the merged final label (1 for positives the one-to-one
	// greedy kept).
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
	out := make([]Entry, 0, len(r.recs))
	for _, rec := range r.recs {
		out = append(out, rec.Entry)
	}
	slices.SortFunc(out, func(a, b Entry) int { return compareLinks(a.Link, b.Link) })
	return out
}

// compareLinks orders links by (I, J), the canonical order of every
// merged list.
func compareLinks(a, b hetnet.Anchor) int {
	return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
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
// one globally one-to-one result via the score-greedy merge (Merger):
// Begin, then Finish. The oracle may be nil when the
// total budget is zero. Oracle calls are serialized but arrive in
// nondeterministic order across partitions; every oracle in this module
// answers as a pure function of the link (TruthOracle, hash-seeded
// NoisyOracle), which keeps multi-partition runs reproducible — an
// oracle whose answers depend on CALL ORDER would not be.
func Align(base *metadiag.Counter, plan *Plan, opts TrainOptions, oracle active.Oracle) (*Result, error) {
	if plan == nil {
		return nil, fmt.Errorf("partition: empty plan")
	}
	b, err := Begin(base, plan.Parts, opts)
	if err != nil {
		return nil, err
	}
	return b.Finish(plan, opts.Core, oracle)
}

// Begun is a set of part pipelines under way. Begin starts the half of
// each that needs only the part's training anchors — fork the base
// counter, restrict it to the anchors, recount every feature — and
// Finish runs the half that needs the part's candidates and labels: pool
// assembly, feature fill, training, merge. An executor that calls Begin
// as soon as the anchors are clustered (Planner.Seed) counts while the
// planner still assigns candidates. Finish may be called once per round
// of a multi-round run: the filled matrices are kept, so later rounds
// only retrain, exactly as a session worker does with its Prepared.
type Begun struct {
	parts []begunPart
	sem   chan struct{} // the worker cap, shared by both halves
	start time.Time
	quit  atomic.Bool
}

// begunPart is one part's pipeline state. ready is closed when the count
// half is over; everything else is written before that by the counting
// goroutine and afterwards only by the part's Finish goroutine or a
// Prepared call.
type begunPart struct {
	trainPos []hetnet.Anchor
	ready    chan struct{}
	err      error
	// ext is the part's recounted fork, dropped once the feature matrix is
	// filled so the anchor-dependent counts do not outlive their one use.
	ext  *metadiag.Extractor
	prep *Prepared
	busy time.Duration // count and fill time not yet charged to a report
}

// Begin starts counting for every part, at most opts.Workers at a time.
// Only Index and TrainPos of each part are read, so the parts of a
// Seeded will do. A counting failure surfaces from Finish. A caller that
// gives up before Finish must Release the pipelines.
func Begin(base *metadiag.Counter, parts []Part, opts TrainOptions) (*Begun, error) {
	if base == nil {
		return nil, fmt.Errorf("partition: nil base counter")
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("partition: empty plan")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &Begun{
		parts: make([]begunPart, len(parts)),
		sem:   make(chan struct{}, min(workers, len(parts))),
		start: time.Now(),
	}
	for p := range parts {
		bp := &b.parts[p]
		bp.trainPos, bp.ready = parts[p].TrainPos, make(chan struct{})
		go func() {
			defer close(bp.ready)
			b.sem <- struct{}{}
			defer func() { <-b.sem }()
			if b.quit.Load() {
				return // Release names the reason
			}
			t0 := time.Now()
			counter := base.Fork()
			counter.SetAnchors(bp.trainPos)
			bp.ext = metadiag.NewExtractor(counter, opts.Features, true)
			bp.err = bp.ext.Recompute()
			bp.busy = time.Since(t0)
		}()
	}
	return b, nil
}

var errReleased = errors.New("partition: pipelines released")

// Release abandons the pipelines: parts that have not begun counting
// never will, Release returns once no goroutine of Begin is left, and a
// later Finish fails. After the last Finish it only drops what the parts
// still hold.
func (b *Begun) Release() {
	b.quit.Store(true)
	for p := range b.parts {
		bp := &b.parts[p]
		<-bp.ready
		bp.ext, bp.prep = nil, nil
		if bp.err == nil {
			bp.err = errReleased
		}
	}
}

// Finish completes one round over the begun parts: plan must be the
// assignment of the parts Begin was given (same count, same training
// anchors), carrying this round's budgets and prelabels; cfg is the
// round's training configuration (cfg.Budget is not read, cfg.Seed is
// offset per part). Each part fills its feature matrix the first time
// and releases its fork; every call trains and merges.
func (b *Begun) Finish(plan *Plan, cfg core.Config, oracle active.Oracle) (*Result, error) {
	if plan == nil || len(plan.Parts) != len(b.parts) {
		return nil, fmt.Errorf("partition: plan does not have the %d parts begun", len(b.parts))
	}
	start := time.Now()
	if !b.start.IsZero() {
		start, b.start = b.start, time.Time{}
	}
	if oracle != nil && len(plan.Parts) > 1 {
		oracle = &lockedOracle{inner: oracle}
	}
	outs := make([]partOutput, len(plan.Parts))
	errs := make([]error, len(plan.Parts))
	var wg sync.WaitGroup
	for p := range plan.Parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-b.parts[p].ready // before taking a slot the counting half may need
			b.sem <- struct{}{}
			defer func() { <-b.sem }()
			outs[p], errs[p] = b.parts[p].train(&plan.Parts[p], cfg, oracle)
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

// Prepared waits for the p-th part's count half and returns its filled
// pool — filling it from part, the p-th part of the plan, if no Finish
// has yet — for a caller that reads the part's feature matrix itself.
// Later rounds of Finish train on the same Prepared. Not safe for use
// concurrently with Finish.
func (b *Begun) Prepared(p int, part *Part) (*Prepared, error) {
	bp := &b.parts[p]
	<-bp.ready
	b.sem <- struct{}{}
	defer func() { <-b.sem }()
	return bp.prepared(part)
}

// prepared fills the part's pool on first use and drops its fork.
func (bp *begunPart) prepared(part *Part) (*Prepared, error) {
	if bp.err != nil {
		return nil, bp.err
	}
	if !slices.Equal(part.TrainPos, bp.trainPos) {
		return nil, fmt.Errorf("partition: part was begun on other training anchors")
	}
	if bp.prep == nil {
		t0 := time.Now()
		bp.prep, bp.err = fillPart(bp.ext, part)
		bp.ext = nil
		bp.busy += time.Since(t0)
	}
	return bp.prep, bp.err
}

// train is one part's share of a Finish.
func (bp *begunPart) train(part *Part, cfg core.Config, oracle active.Oracle) (partOutput, error) {
	prep, err := bp.prepared(part)
	if err != nil {
		return partOutput{}, err
	}
	t0 := time.Now()
	res, err := prep.Train(part, cfg, oracle)
	if err != nil {
		return partOutput{}, err
	}
	res.Elapsed = bp.busy + time.Since(t0)
	bp.busy = 0
	return partOutput{part: part, links: prep.Links, res: res}, nil
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

// X returns the pool's feature matrix, one row per link of Links. It is
// shared with every Train call: read-only.
func (pp *Prepared) X() *linalg.Dense { return pp.x }

// PreparePart runs the counting and feature-extraction half of a part's
// pipeline and returns the reusable Prepared state. The counter's
// anchors must already be restricted to part.TrainPos.
func PreparePart(counter *metadiag.Counter, part *Part, features []schema.Named) (*Prepared, error) {
	ext := metadiag.NewExtractor(counter, features, true)
	if err := ext.Recompute(); err != nil {
		return nil, err
	}
	return fillPart(ext, part)
}

// fillPart assembles the part's pool and fills its feature matrix from
// an extractor already recomputed on the part's training anchors.
func fillPart(ext *metadiag.Extractor, part *Part) (*Prepared, error) {
	links := make([]hetnet.Anchor, 0, len(part.TrainPos)+len(part.Candidates))
	links = append(links, part.TrainPos...)
	seen := make(map[int64]int, cap(links))
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

// merge resolves the per-partition predictions into one globally
// one-to-one label assignment by streaming every pool link's vote
// through a Merger (see merger.go for the precedence rules and the
// greedy). A single part votes once per link, so its votes need no
// index to meet; its result builds one on the first lookup, as the
// training loop's own result does.
func merge(outs []partOutput) *Result {
	votes := 0
	for _, out := range outs {
		votes += len(out.links)
	}
	m, add := &Merger{recs: make([]linkRecord, 0, votes)}, (*Merger).addDistinct
	if len(outs) > 1 {
		m, add = newMerger(votes), (*Merger).Add
	}
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
		for idx := range out.links {
			add(m, partVote(out.part, out.links, out.res, idx))
		}
	}
	res := m.Finish()
	res.Reports = reports
	res.ShardWeights = weights
	return res
}

// PartVotes extracts one shard pipeline's votes from its training
// result: one vote per pool link, in pool order — links is the pool res
// was trained on, so every read of res is by position. The distributed
// worker streams exactly these votes (translated to original indices)
// back to the coordinator, so the in-process and remote merge inputs
// coincide.
func PartVotes(part *Part, links []hetnet.Anchor, res *core.Result) []Vote {
	votes := make([]Vote, len(links))
	for idx := range links {
		votes[idx] = partVote(part, links, res, idx)
	}
	return votes
}

// partVote is the vote of the pool link at idx.
func partVote(part *Part, links []hetnet.Anchor, res *core.Result, idx int) Vote {
	return Vote{
		Link:    links[idx],
		Label:   res.Y[idx],
		Score:   res.Scores[idx],
		Queried: res.QueriedAt(idx),
		Fixed:   idx < len(part.TrainPos),
	}
}
