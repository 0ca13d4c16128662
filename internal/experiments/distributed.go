package experiments

import (
	"fmt"
	"os"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/distrib"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// DistributedPoint is one measured execution mode of the same K-shard
// alignment problem. Session modes ("<transport>/rounds-full",
// "<transport>/rounds-delta") add the multi-round cache columns and one
// RoundDetail entry per active-learning round.
type DistributedPoint struct {
	Mode       string // "in-process", "loopback", "subprocess", "<transport>/rounds-*"
	Partitions int
	Workers    int
	Rounds     int
	F1         float64
	Precision  float64
	Recall     float64
	Queries    int
	Rejected   int
	AlignTime  time.Duration
	// JobBytes is what the mode shipped per run (0 for in-process).
	JobBytes int64
	// SeedBytes / SeedShips audit warm-counter seed shipping: the
	// one-time per-connection cost that lets every job drop its networks.
	SeedBytes int64
	SeedShips int
	// DeltaBytes / CacheHits / CacheMisses audit session delta shipping.
	DeltaBytes  int64
	CacheHits   int
	CacheMisses int
	Retries     int
	// Fallbacks counts shards that degraded to the in-process loopback
	// path — non-zero only when the transport misbehaved (see the chaos
	// mode). Hedges counts straggler hedge dispatches.
	Fallbacks int
	Hedges    int
	// Shards is the per-shard attempt audit (attempts, hedged, fallback)
	// straight from the run metrics; sessions accumulate one entry per
	// shard per round.
	Shards []distrib.ShardMetrics
	// Chaos holds the fault injector's totals for the chaos modes, nil
	// elsewhere.
	Chaos       *distrib.ChaosStats
	RoundDetail []DistributedRound
}

// DistributedRound is one session round's wire audit.
type DistributedRound struct {
	Round      int
	JobBytes   int64 // full-job frame bytes this round
	DeltaBytes int64 // JobRef frame bytes this round
	CacheHits  int
	Queries    int
	AlignTime  time.Duration
}

// DistributedConfig parameterizes RunDistributedPoints beyond the
// preset.
type DistributedConfig struct {
	// Workers caps concurrent shard execution (pipelines in-process,
	// worker connections distributed); ≤ 0 uses the preset's Workers
	// (minimum 1).
	Workers int
	// WorkerCmd, when non-empty, adds a subprocess-transport run
	// spawning this command (plus Args) per worker — typically a built
	// `activeiter` binary invoked with -worker.
	WorkerCmd  string
	WorkerArgs []string
	// Rounds > 1 adds the sticky-session modes: the budget splits across
	// this many retrain-after-labels rounds, run once with delta
	// shipping disabled (every round re-ships full jobs — the PR 3
	// cost model) and once with JobRef deltas to warm workers.
	Rounds int
	// ChaosSeed, when non-zero, adds a fault-injected loopback mode: the
	// same plan dispatched through a seeded ChaosTransport (refused
	// dials, mid-frame drops, byte corruption, worker crashes). The
	// alignment quality columns must match the healthy modes exactly —
	// the retries and fallbacks columns show what the fault-tolerance
	// layer absorbed to get there.
	ChaosSeed int64
	// Tracer, when non-nil, records coordinator/session shard spans for
	// every distributed mode (and, over the wire, the workers' spans) —
	// dump it with Tracer.WriteChrome after the run.
	Tracer *telemetry.Tracer
}

// RunDistributedPoints measures the same single-cell shard plan as
// RunScalabilityPoints executed three ways: in-process partition
// pipelines, distributed over the in-process loopback transport, and
// (when a worker command is configured) distributed over subprocess
// workers. All three must produce the same alignment — the point of the
// comparison is the transport and serialization overhead.
func RunDistributedPoints(pre Preset, cfg DistributedConfig) ([]DistributedPoint, error) {
	pair, err := datagen.Generate(pre.Data)
	if err != nil {
		return nil, err
	}
	base, err := newBaseCounter(pair)
	if err != nil {
		return nil, err
	}
	budget := 0
	if len(pre.Budgets) > 0 {
		budget = pre.Budgets[len(pre.Budgets)-1]
	}
	rng := newRunRNG(pre.Seed, pre.FixedTheta, 1300)
	neg, err := eval.SampleNegatives(pair, pre.FixedTheta*len(pair.Anchors), rng)
	if err != nil {
		return nil, err
	}
	splits, err := eval.KFoldSplits(pair.Anchors, neg, pre.Folds, pre.FixedGamma, rng)
	if err != nil {
		return nil, err
	}
	split := splits[0]
	trainPos := split.TrainPos
	var candidates []hetnet.Anchor
	candidates = append(candidates, split.TrainNeg...)
	candidates = append(candidates, split.TestPos...)
	candidates = append(candidates, split.TestNeg...)
	oracle := active.NewTruthOracle(pair)
	workers := cfg.Workers
	if workers <= 0 {
		workers = pre.Workers
	}
	if workers < 1 {
		workers = 1
	}
	// An explicit -partitions 1 means a genuine monolithic single-shard
	// plan (the '≤1 = monolithic' contract of the flag); only the unset
	// zero falls back to a 2-shard default.
	k := pre.Partitions
	if k <= 0 {
		k = 2
	}

	// Session modes mutate their plan (per-round rebudget + label
	// appends), so every mode gets a fresh plan; one cached planner keeps
	// re-planning cheap.
	var planner *partition.Planner
	newPlan := func() (*partition.Plan, error) {
		return partition.PlanCached(base, &planner, trainPos, candidates, budget, partition.Config{K: k})
	}
	plan, err := newPlan()
	if err != nil {
		return nil, err
	}
	train := distrib.TrainConfig{FeatureSet: distrib.FeaturesFull, Strategy: distrib.StrategyConflict, Seed: pre.Seed}

	score := func(res *partition.Result) (f1, prec, rec float64) {
		var conf eval.Confusion
		add := func(links []hetnet.Anchor, truth float64) {
			for _, l := range links {
				if res.WasQueried(l.I, l.J) {
					continue
				}
				lab, _ := res.Label(l.I, l.J)
				conf.Add(lab, truth)
			}
		}
		add(split.TestPos, 1)
		add(split.TestNeg, 0)
		return conf.F1(), conf.Precision(), conf.Recall()
	}

	var points []DistributedPoint

	// In-process reference: the NewPartitioned path, resolved from the
	// same TrainConfig the distributed modes ship.
	inprocTrain, err := train.TrainOptions()
	if err != nil {
		return nil, err
	}
	inprocTrain.Workers = workers
	inproc, err := partition.Align(base, plan, inprocTrain, oracle)
	if err != nil {
		return nil, fmt.Errorf("distributed: in-process reference: %w", err)
	}
	f1, prec, rec := score(inproc)
	points = append(points, DistributedPoint{
		Mode: "in-process", Partitions: len(plan.Parts), Workers: workers,
		F1: f1, Precision: prec, Recall: rec,
		Queries: inproc.QueryCount(), Rejected: inproc.Rejected,
		AlignTime: inproc.Elapsed,
	})

	runCoord := func(mode string, transport distrib.Transport, opts distrib.Options) error {
		coord := &distrib.Coordinator{Transport: transport, Opts: opts}
		res, metrics, err := coord.Run(pair, plan, oracle)
		if err != nil {
			return fmt.Errorf("distributed: %s: %w", mode, err)
		}
		f1, prec, rec := score(res)
		points = append(points, DistributedPoint{
			Mode: mode, Partitions: len(plan.Parts), Workers: workers,
			F1: f1, Precision: prec, Recall: rec,
			Queries: res.QueryCount(), Rejected: res.Rejected,
			AlignTime: res.Elapsed,
			JobBytes:  metrics.JobBytes,
			SeedBytes: metrics.SeedBytes, SeedShips: metrics.SeedShips,
			Retries: metrics.Retries, Fallbacks: metrics.Fallbacks,
			Hedges: metrics.Hedges, Shards: metrics.Shards,
		})
		return nil
	}
	// The base counter is already warm from planning; the distributed
	// modes export their worker seed from it rather than recounting.
	baseOpts := distrib.Options{Train: train, Workers: workers, Base: base, Tracer: cfg.Tracer}
	if err := runCoord("loopback", distrib.Loopback{}, baseOpts); err != nil {
		return nil, err
	}
	if cfg.WorkerCmd != "" {
		tr := &distrib.Exec{Cmd: cfg.WorkerCmd, Args: cfg.WorkerArgs, Stderr: os.Stderr}
		if err := runCoord("subprocess", tr, baseOpts); err != nil {
			return nil, err
		}
	}
	if cfg.ChaosSeed != 0 {
		// Fault-inject the most realistic transport available: genuine
		// subprocess workers when a worker command is configured, the
		// in-process loopback otherwise.
		inner := distrib.Transport(distrib.Loopback{})
		mode := "loopback/chaos"
		if cfg.WorkerCmd != "" {
			inner = &distrib.Exec{Cmd: cfg.WorkerCmd, Args: cfg.WorkerArgs, Stderr: os.Stderr}
			mode = "subprocess/chaos"
		}
		chaos := &distrib.ChaosTransport{Inner: inner, Opts: distrib.ChaosOptions{
			Seed:       cfg.ChaosSeed,
			RefuseRate: 0.10, DropRate: 0.30, CorruptRate: 0.10, CrashRate: 0.10,
		}}
		chaosOpts := baseOpts
		chaosOpts.Retries = 4
		chaosOpts.ShardTimeout = 10 * time.Second
		if err := runCoord(mode, chaos, chaosOpts); err != nil {
			return nil, err
		}
		// The injector's totals ride on the point (tabulated as a table
		// note) rather than a stderr side channel.
		s := chaos.Stats()
		points[len(points)-1].Chaos = &s
	}

	// Sticky-session modes: the same problem as a multi-round active
	// loop, once re-shipping full jobs every round (what PR 3's
	// single-shot dispatch would cost per retrain) and once shipping
	// JobRef deltas to warm workers.
	runSession := func(mode string, transport distrib.Transport, deltaMax int) error {
		p, err := newPlan()
		if err != nil {
			return err
		}
		sess, err := distrib.NewSession(transport, pair, distrib.Options{
			Train: train, Workers: workers, DeltaMaxLabels: deltaMax, Base: base, Tracer: cfg.Tracer,
		})
		if err != nil {
			return err
		}
		defer sess.Close()
		point := DistributedPoint{
			Mode: mode, Partitions: len(p.Parts), Workers: workers,
			Rounds: cfg.Rounds,
		}
		var res *partition.Result
		start := time.Now()
		for r := 0; r < cfg.Rounds; r++ {
			p.Rebudget(partition.RoundBudget(budget, cfg.Rounds, r))
			t0 := time.Now()
			var m *distrib.Metrics
			res, m, err = sess.Run(p, oracle)
			if err != nil {
				return fmt.Errorf("distributed: %s round %d: %w", mode, r+1, err)
			}
			if r < cfg.Rounds-1 {
				p.AppendLabels(res.QueriedLabels())
			}
			point.RoundDetail = append(point.RoundDetail, DistributedRound{
				Round: r + 1, JobBytes: m.JobBytes, DeltaBytes: m.DeltaBytes,
				CacheHits: m.CacheHits, Queries: m.Queries, AlignTime: time.Since(t0),
			})
		}
		cum := sess.Metrics()
		point.F1, point.Precision, point.Recall = score(res)
		point.Queries = cum.Queries
		point.Rejected = res.Rejected
		point.AlignTime = time.Since(start)
		point.JobBytes = cum.JobBytes
		point.SeedBytes = cum.SeedBytes
		point.SeedShips = cum.SeedShips
		point.DeltaBytes = cum.DeltaBytes
		point.CacheHits = cum.CacheHits
		point.CacheMisses = cum.CacheMisses
		point.Retries = cum.Retries
		point.Fallbacks = cum.Fallbacks
		point.Hedges = cum.Hedges
		point.Shards = cum.Shards
		points = append(points, point)
		return nil
	}
	if cfg.Rounds > 1 {
		if err := runSession("loopback/rounds-full", distrib.Loopback{}, -1); err != nil {
			return nil, err
		}
		if err := runSession("loopback/rounds-delta", distrib.Loopback{}, 0); err != nil {
			return nil, err
		}
		if cfg.WorkerCmd != "" {
			tr := &distrib.Exec{Cmd: cfg.WorkerCmd, Args: cfg.WorkerArgs, Stderr: os.Stderr}
			if err := runSession("subprocess/rounds-delta", tr, 0); err != nil {
				return nil, err
			}
		}
	}
	return points, nil
}

// RunDistributedWith tabulates RunDistributedPoints for the CLI.
func RunDistributedWith(pre Preset, cfg DistributedConfig) (*Table, error) {
	points, err := RunDistributedPoints(pre, cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Distributed — shard execution modes (θ=%d, γ=%.0f%%, K=%d, workers=%d, preset %q)",
			pre.FixedTheta, pre.FixedGamma*100, points[0].Partitions, points[0].Workers, pre.Name),
		ColHeader: "mode",
		Cols:      []string{"F1", "Precision", "Recall", "queries", "rejected", "align", "job bytes", "seed bytes", "delta bytes", "cache hit/miss", "attempts", "hedges", "retries", "fallbacks"},
	}
	sec := Section{Name: "distributed alignment"}
	for _, p := range points {
		jobBytes := "—"
		if p.JobBytes > 0 {
			jobBytes = fmt.Sprint(p.JobBytes)
		}
		seedBytes := "—"
		if p.SeedBytes > 0 {
			seedBytes = fmt.Sprintf("%d (%d ships)", p.SeedBytes, p.SeedShips)
		}
		deltaBytes, cache := "—", "—"
		if p.Rounds > 1 {
			deltaBytes = fmt.Sprint(p.DeltaBytes)
			cache = fmt.Sprintf("%d/%d", p.CacheHits, p.CacheMisses)
		}
		attempts := "—"
		if len(p.Shards) > 0 {
			n := 0
			for _, sm := range p.Shards {
				n += sm.Attempts
			}
			attempts = fmt.Sprint(n)
		}
		sec.Rows = append(sec.Rows, TableRow{Label: p.Mode, Cells: []string{
			fmt.Sprintf("%.4f", p.F1),
			fmt.Sprintf("%.4f", p.Precision),
			fmt.Sprintf("%.4f", p.Recall),
			fmt.Sprint(p.Queries),
			fmt.Sprint(p.Rejected),
			p.AlignTime.Round(time.Millisecond).String(),
			jobBytes,
			seedBytes,
			deltaBytes,
			cache,
			attempts,
			fmt.Sprint(p.Hedges),
			fmt.Sprint(p.Retries),
			fmt.Sprint(p.Fallbacks),
		}})
		if p.Chaos != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("chaos: dials=%d refused=%d dropped=%d corrupted=%d crashed=%d (%s)",
				p.Chaos.Dials, p.Chaos.Refused, p.Chaos.Dropped, p.Chaos.Corrupted, p.Chaos.Crashed, p.Mode))
		}
	}
	t.Sections = []Section{sec}
	// Modes where the fault-tolerance layer actually worked get a
	// per-shard attempt breakdown. Labels use "#s<idx>" (no space) so the
	// summary rows stay uniquely matchable as "<mode> ".
	var shards Section
	for _, p := range points {
		if p.Rounds > 1 || p.Retries+p.Hedges+p.Fallbacks == 0 {
			continue
		}
		for _, sm := range p.Shards {
			yes := func(b bool) string {
				if b {
					return "yes"
				}
				return "—"
			}
			shards.Rows = append(shards.Rows, TableRow{
				Label: fmt.Sprintf("%s#s%d", p.Mode, sm.Shard),
				Cells: []string{
					"—", "—", "—", "—", "—", "—",
					fmt.Sprint(sm.JobBytes),
					"—", "—", "—",
					fmt.Sprint(sm.Attempts),
					yes(sm.Hedged),
					"—",
					yes(sm.Fallback),
				},
			})
		}
	}
	if len(shards.Rows) > 0 {
		shards.Name = "per shard (attempts / hedges / fallbacks)"
		t.Sections = append(t.Sections, shards)
	}
	// Session modes get a per-round breakdown section: what each retrain
	// round actually shipped.
	var rounds Section
	for _, p := range points {
		for _, r := range p.RoundDetail {
			rounds.Rows = append(rounds.Rows, TableRow{
				Label: fmt.Sprintf("%s r%d", p.Mode, r.Round),
				Cells: []string{
					"—", "—", "—",
					fmt.Sprint(r.Queries),
					"—",
					r.AlignTime.Round(time.Millisecond).String(),
					fmt.Sprint(r.JobBytes),
					"—",
					fmt.Sprint(r.DeltaBytes),
					fmt.Sprint(r.CacheHits),
					"—", "—", "—", "—",
				},
			})
		}
	}
	if len(rounds.Rows) > 0 {
		rounds.Name = "per round"
		t.Sections = append(t.Sections, rounds)
	}
	return t, nil
}

// RunDistributed is the parameterless runner used by `-exp all`:
// loopback and in-process modes on the preset's defaults.
func RunDistributed(pre Preset) (*Table, error) {
	return RunDistributedWith(pre, DistributedConfig{})
}
