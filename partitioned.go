package activeiter

import (
	"errors"

	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/distrib"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
)

// PartitionedResult is a completed alignment: the globally one-to-one
// predicted anchors, every pool link's merged label, score and oracle
// flag, each part's trained weights, and per-part audit reports.
type PartitionedResult = partition.Result

// PartitionReport is the audit trail of one shard's pipeline.
type PartitionReport = partition.PartReport

// shardedAligner is the one aligner behind New, NewPartitioned and
// NewDistributed. The candidate space is sharded into
// Options.Partitions overlapping parts (seeded by training-anchor
// locality on both follow graphs; ≤ 1 is the whole pool as one part),
// the active-learning budget is split across them
// proportionally to their candidate share, every part runs the
// counter→extractor→training pipeline, and the per-part predictions
// merge into one globally one-to-one result through the trainer's
// score-greedy link selection (partition.Merger). The constructors
// differ only in where the parts run (see open).
type shardedAligner struct {
	pair      *AlignedPair
	base      *metadiag.Counter
	opts      Options
	train     partition.TrainOptions // opts, resolved: what in-process parts run
	transport ShardTransport         // nil: parts run in-process on forks of base
	planner   *partition.Planner     // lazy; only needed when Partitions > 1
	panel     *OraclePanel
	metrics   *DistributedMetrics
	ext       *metadiag.Extractor // FeatureVector's, on a fork (restrict)
	warmed    bool                // a base Warm succeeded; its layer is never evicted
}

// PartitionedAligner runs its shards concurrently in this process, on
// forks of one base counter sharing its attribute-only count cache. It
// is the aligner New and NewDistributed also return; Metrics() is nil
// here: in-process runs cross no wire.
type PartitionedAligner = shardedAligner

func newSharded(pair *AlignedPair, opts Options, transport ShardTransport) (*shardedAligner, error) {
	if pair == nil {
		return nil, errors.New("activeiter: nil pair")
	}
	train, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	base, err := metadiag.NewCounter(pair)
	if err != nil {
		return nil, err
	}
	sa := &shardedAligner{pair: pair, base: base, opts: opts, train: train, transport: transport}
	sa.restrict(nil)
	return sa, nil
}

// NewPartitioned is New.
func NewPartitioned(pair *AlignedPair, opts Options) (*PartitionedAligner, error) {
	return New(pair, opts)
}

// Align trains on the labeled positive anchors trainPos and infers
// labels for every candidate link. Candidates must contain the unlabeled
// pool (test positives and sampled negatives); trainPos links are added
// to the pool automatically. The oracle may be nil when Budget is 0.
// The candidates are sharded into parts, every part trains on trainPos
// ∩ part, and the parts reconcile; the union of part pools covers every
// candidate.
//
// The run is max(Options.Rounds, 1) rounds over one stable plan: the
// budget splits across the rounds and each round's oracle answers are
// fed back into the plan as fixed labels for the next. The final
// round's merged result (which carries every queried link across
// rounds) is the alignment; its Reports accumulate one entry per shard
// per round, so QueryCount spans the whole run's oracle spend whatever
// the round count. A distributed run keeps one sticky worker session
// across the rounds, and after the first each worker re-runs only
// training on the shard it prepared (Metrics().CacheHits counts those
// warm runs); its oracle stays on this side of the wire and is queried
// through label round-trip frames, so remote workers never see ground
// truth beyond their shard's training anchors.
//
// Reproducibility: with Partitions > 1 oracle queries arrive in
// nondeterministic order across the concurrent shard pipelines. Runs
// remain identical for a fixed Seed as long as the oracle answers as a
// pure function of the queried link — true of NewTruthOracle and of
// the Options.OracleConfig panel and its hash-seeded flippers (whose
// verdicts therefore also survive session retries and later rounds
// unchanged). Supply an order-dependent oracle only with
// Partitions ≤ 1.
func (sa *shardedAligner) Align(trainPos []Anchor, candidates []Anchor, oracle Oracle) (*PartitionedResult, error) {
	return sa.AlignPrelabeled(trainPos, candidates, oracle, nil)
}

// AlignPrelabeled is Align with confidence-weighted labels from an
// earlier panel run fixed into the pool before training: each weighted
// label enters the problem the way an in-run oracle answer would
// (fixed for the whole run, excluded from query selection and from
// this run's budget), carrying WeightedLabel.Value() — the
// trust-weighted soft label — as its target, in every part whose pool
// holds the link. Links absent from candidates are added to the pool;
// links already in trainPos keep their ground-truth status.
func (sa *shardedAligner) AlignPrelabeled(trainPos, candidates []Anchor, oracle Oracle, pre []WeightedLabel) (*PartitionedResult, error) {
	if len(trainPos) == 0 {
		return nil, core.ErrNoPositives
	}
	oracle, panel, err := sa.opts.wrapOracle(oracle)
	if err != nil {
		return nil, err
	}
	sa.panel = panel
	sa.restrict(trainPos)
	labels := prelabels(trainPos, pre)
	// Prelabeled links absent from candidates join the pool behind them
	// (the part pipeline dedups the rest); the cap keeps the appends off
	// the caller's array.
	candidates = candidates[:len(candidates):len(candidates)]
	for _, l := range labels {
		candidates = append(candidates, l.Link)
	}
	// The executor opens before the plan exists and is told the parts the
	// moment their training anchors are final: a worker session starts its
	// workers, which install the counter seed, and the in-process arm
	// warms the shared count layer and then recounts every part's anchor
	// layer, all while this side plans — none of it needs the candidate
	// assignment, only the shard count the plan cannot exceed.
	ex, err := sa.open(min(max(sa.opts.Partitions, 1), len(trainPos)))
	if err != nil {
		return nil, err
	}
	// A failed round's audit is still the run's audit: Metrics must show
	// the attempts and retries that led to the abort.
	defer ex.close()
	// Planning is SeedCached then Assign, with the parts begun in
	// between — same plan in, same alignment out is the property both
	// executors are tested against. Repeated Align calls (cross-validation folds, retraining
	// after new labels) reuse the cached planner's fold-independent inputs.
	seeded, err := partition.SeedCached(sa.base, &sa.planner, trainPos, partition.Config{K: sa.opts.Partitions})
	if err != nil {
		return nil, err
	}
	if err := ex.begin(seeded.Parts); err != nil {
		return nil, err
	}
	plan, err := seeded.Assign(candidates, sa.opts.Budget)
	if err != nil {
		return nil, err
	}
	plan.AppendLabels(labels)
	rounds := max(sa.opts.Rounds, 1)
	var res *PartitionedResult
	var reports []PartitionReport
	for r := 0; r < rounds; r++ {
		plan.Rebudget(partition.RoundBudget(sa.opts.Budget, rounds, r))
		if res, err = ex.round(r, plan, oracle); err != nil {
			return nil, err
		}
		reports = append(reports, res.Reports...)
		if r < rounds-1 {
			plan.AppendLabels(res.QueriedLabels())
		}
	}
	res.Reports = reports
	return res, nil
}

// Metrics returns the transport audit of the last distributed Align
// call — of a failed one too. It is nil before the first call and for
// in-process runs, which cross no wire.
func (sa *shardedAligner) Metrics() *DistributedMetrics { return sa.metrics }

// executor is where the parts of one Align call run. Both arms have the
// same shape — open early, begin per part, finish per round: begin
// hears of the parts once their training anchors are final (candidates,
// budgets and labels are not), round trains every part of the assigned
// plan once and reconciles the votes, and close releases the executor
// and records the run's transport audit (none without a wire).
type executor interface {
	begin(parts []partition.Part) error
	round(r int, plan *partition.Plan, oracle Oracle) (*PartitionedResult, error)
	close()
}

// open picks the executor the constructor chose: in-process forks of the
// base counter, or one sticky worker session over the transport, already
// connecting the workers a plan of up to shards parts will use.
func (sa *shardedAligner) open(shards int) (executor, error) {
	if sa.transport == nil {
		fe := &forkExecutor{sa: sa, warm: make(chan struct{})}
		if sa.warmed {
			close(fe.warm)
			return fe, nil
		}
		// Everything a fork will not recount, evaluated beside the planner
		// instead of inside the first parts to ask. An error here is the
		// parts' to report: they ask for the same counts.
		go func() {
			defer close(fe.warm)
			sa.warmed = sa.base.Warm(sa.train.Features) == nil
		}()
		return fe, nil
	}
	// The session runs the default retry policy: three attempts per
	// shard, two minutes each, then the in-process fallback.
	sess, err := distrib.NewSession(sa.transport, sa.pair, distrib.Options{
		Train:   sa.opts.trainConfig(),
		Workers: sa.opts.Workers,
		// Shared with planning, which runs beside the seed export: each
		// count either of them needs is evaluated once, whoever asks first.
		Base: sa.base,
	})
	if err != nil {
		return nil, err
	}
	sess.ConnectAhead(shards)
	return &sessionExecutor{sa: sa, sess: sess}, nil
}

// forkExecutor is the in-process arm: concurrent part pipelines on forks
// of the base counter. Each part recounts its anchor layer once, as soon
// as begin names its anchors, and keeps the filled feature matrix across
// the rounds, retraining on the round's seed — exactly what a session's
// workers do with their prepared shards.
type forkExecutor struct {
	sa    *shardedAligner
	warm  chan struct{} // closed when the background Warm is over
	begun *partition.Begun
}

func (fe *forkExecutor) begin(parts []partition.Part) (err error) {
	fe.begun, err = partition.Begin(fe.sa.base, parts, fe.sa.train)
	return err
}

func (fe *forkExecutor) round(r int, plan *partition.Plan, oracle Oracle) (*PartitionedResult, error) {
	cfg := fe.sa.train.Core
	cfg.Seed = partition.RoundSeed(cfg.Seed, r)
	return fe.begun.Finish(plan, cfg, oracle)
}

// close leaves no goroutine of the run behind, whichever step failed.
func (fe *forkExecutor) close() {
	if fe.begun != nil {
		fe.begun.Release()
	}
	<-fe.warm
	fe.sa.metrics = nil
}

// sessionExecutor is the worker arm: a sticky session whose workers
// prepare a shard when its job arrives, so begin has nothing to add to
// the connects open already started.
type sessionExecutor struct {
	sa   *shardedAligner
	sess *distrib.Session
}

func (se *sessionExecutor) begin([]partition.Part) error { return nil }

func (se *sessionExecutor) round(_ int, plan *partition.Plan, oracle Oracle) (*PartitionedResult, error) {
	res, _, err := se.sess.Run(plan, oracle) // the session counts its own rounds
	return res, err
}

func (se *sessionExecutor) close() {
	se.sess.Close()
	se.sa.metrics = se.sess.Metrics()
}
