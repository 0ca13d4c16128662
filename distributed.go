package activeiter

import (
	"errors"
	"io"

	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/distrib"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
)

// LabeledLink is one oracle-labeled pool link, as returned by
// PartitionedResult.QueriedLabels and consumed by a multi-round session.
type LabeledLink = partition.LabeledLink

// ShardTransport produces worker connections for distributed alignment.
// Use NewLoopbackTransport, NewWorkerProcessTransport or
// NewTCPTransport — or implement Dial for a custom fabric.
type ShardTransport = distrib.Transport

// DistributedMetrics is a distributed run's transport audit: bytes on
// the wire per shard and in total, oracle round-trips, retries.
type DistributedMetrics = distrib.Metrics

// NewLoopbackTransport serves every shard with an in-process worker
// goroutine speaking the full wire protocol — the zero-setup transport
// for tests and single-machine runs, and the serialization-overhead
// baseline for benchmarks.
func NewLoopbackTransport() ShardTransport { return distrib.Loopback{} }

// NewWorkerProcessTransport spawns one worker subprocess per connection
// and speaks the wire protocol over its stdio. The command must run the
// worker serve loop on stdin/stdout — `activeiter -worker` does.
func NewWorkerProcessTransport(cmd string, args ...string) ShardTransport {
	return &distrib.Exec{Cmd: cmd, Args: args}
}

// NewTCPTransport dials remote workers round-robin across addrs; each
// address should run `activeiter -worker-listen <addr>`.
func NewTCPTransport(addrs ...string) ShardTransport { return distrib.NewTCP(addrs...) }

// ServeWorker runs the distributed-alignment worker protocol over the
// given stream until it closes — the loop behind `activeiter -worker`.
func ServeWorker(conn io.ReadWriter) error { return distrib.Serve(conn) }

// ListenAndServeWorker accepts coordinator connections on addr and
// serves each until the listener fails — the loop behind
// `activeiter -worker-listen`.
func ListenAndServeWorker(addr string) error { return distrib.ListenAndServe(addr, nil) }

// DistributedAligner fans shard alignment out across processes: it
// plans candidate-space shards exactly like PartitionedAligner, ships
// its warm anchor-free count cache once per worker connection so jobs
// reduce to a few kilobytes of pool indices (workers fork the seeded
// counter instead of re-counting; shard extraction remains the
// fallback when seeding is off), answers the workers' oracle queries,
// and reconciles the returned vote streams into one globally one-to-one
// result.
//
// For the same Options (seed, partitions, budget) a distributed run
// produces the same alignment as PartitionedAligner — shard extraction
// preserves features exactly, the workers run the identical per-shard
// pipeline, and the reconciliation is order-independent. The difference
// is where shards execute: forks in one process vs worker processes on
// any number of machines.
type DistributedAligner struct {
	pair      *AlignedPair
	base      *metadiag.Counter
	opts      Options
	transport ShardTransport
	planner   *partition.Planner
	panel     *OraclePanel

	metrics *DistributedMetrics
}

// NewDistributed builds a distributed aligner over the pair. Shard
// count comes from Options.Partitions, worker-connection concurrency
// from Options.Workers.
func NewDistributed(pair *AlignedPair, opts Options, transport ShardTransport) (*DistributedAligner, error) {
	if pair == nil {
		return nil, errors.New("activeiter: nil pair")
	}
	if transport == nil {
		return nil, errors.New("activeiter: nil shard transport")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	base, err := metadiag.NewCounter(pair)
	if err != nil {
		return nil, err
	}
	return &DistributedAligner{pair: pair, base: base, opts: opts, transport: transport}, nil
}

// Align shards the candidate space, dispatches every shard to a worker,
// and reconciles. Semantics match PartitionedAligner.Align, including
// the pure-oracle reproducibility caveat; the oracle stays on this side
// of the wire and is queried through label round-trip frames, so remote
// workers never see ground truth beyond their shard's training anchors.
//
// The run is max(Options.Rounds, 1) rounds over one sticky worker
// session: the budget splits across the rounds, each round's oracle
// answers are fed back into the stable plan as fixed labels, and every
// round after the first ships only those label deltas to the workers
// already holding the shards warm (see Metrics().CacheHits and
// DeltaBytes for the audit). The final round's merged result (which
// carries every queried link across rounds) is the alignment; its
// Reports accumulate one entry per shard per round, so QueryCount spans
// the whole run's oracle spend whatever the round count.
func (da *DistributedAligner) Align(trainPos, candidates []Anchor, oracle Oracle) (*PartitionedResult, error) {
	if len(trainPos) == 0 {
		return nil, core.ErrNoPositives
	}
	// The panel stays coordinator-side: workers' label round-trip frames
	// are answered with panel verdicts, and because verdicts are pure
	// per-link functions, session label deltas carry them unchanged
	// across rounds and retries.
	oracle, panel, err := da.opts.wrapOracle(oracle)
	if err != nil {
		return nil, err
	}
	da.panel = panel
	plan, err := planShards(da.base, &da.planner, da.opts, trainPos, candidates)
	if err != nil {
		return nil, err
	}
	dopts := da.opts.distribOptions()
	// The facade's base counter is already warm from planning; exporting
	// the seed from it costs matrix reads, not recounts.
	dopts.Base = da.base
	sess, err := distrib.NewSession(da.transport, da.pair, dopts)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	// A failed round's audit is still the run's audit: Metrics must show
	// the attempts and retries that led to the abort.
	defer func() { da.metrics = sess.Metrics() }()
	rounds := max(da.opts.Rounds, 1)
	var res *PartitionedResult
	var reports []PartitionReport
	for r := 0; r < rounds; r++ {
		plan.Rebudget(partition.RoundBudget(da.opts.Budget, rounds, r))
		res, _, err = sess.Run(plan, oracle)
		if err != nil {
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

// Metrics returns the transport audit of the last Align call — of a
// failed one too — and nil before the first.
func (da *DistributedAligner) Metrics() *DistributedMetrics { return da.metrics }

// distribOptions maps the facade options onto the coordinator's,
// carrying the fault-tolerance knobs (retries, deadlines, hedging,
// degradation) alongside the training configuration.
func (o Options) distribOptions() distrib.Options {
	return distrib.Options{
		Train:        o.trainConfig(),
		Workers:      o.Workers,
		Retries:      o.ShardRetries,
		ShardTimeout: o.ShardTimeout,
		HedgeAfter:   o.HedgeAfter,
		NoFallback:   o.NoFallback,
	}
}

// trainConfig flattens the options into the wire-safe training
// configuration workers receive.
func (o Options) trainConfig() distrib.TrainConfig {
	cfg := distrib.TrainConfig{
		C:         o.C,
		Threshold: o.Threshold,
		BatchSize: o.BatchSize,
		Exact:     o.ExactSelection,
		Seed:      o.Seed,
	}
	switch o.Features {
	case PathFeatures:
		cfg.FeatureSet = distrib.FeaturesPaths
	case ExtendedFeatures:
		cfg.FeatureSet = distrib.FeaturesExtended
	default:
		cfg.FeatureSet = distrib.FeaturesFull
	}
	switch o.Strategy {
	case StrategyRandom:
		cfg.Strategy = distrib.StrategyRandom
	case StrategyUncertainty:
		cfg.Strategy = distrib.StrategyUncertainty
	default:
		cfg.Strategy = distrib.StrategyConflict
	}
	return cfg
}
