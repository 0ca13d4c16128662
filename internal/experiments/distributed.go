package experiments

import (
	"fmt"
	"os"
	"time"

	"github.com/activeiter/activeiter/internal/distrib"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/retry"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// DistributedPoint is one measured execution mode of the same K-shard
// alignment problem. Session modes ("<transport>/rounds") add the
// multi-round cache columns and one RoundDetail entry per
// active-learning round.
type DistributedPoint struct {
	Mode       string // "in-process", "loopback", "subprocess", "<transport>/rounds"
	Partitions int
	Workers    int
	Rounds     int
	F1         float64
	Precision  float64
	Recall     float64
	Queries    int
	Rejected   int
	AlignTime  time.Duration
	// Metrics is the mode's wire audit summed over its rounds (zero for
	// in-process): cold and warm job bytes, seed bytes, cache verdicts,
	// retries, fallbacks — non-zero fallbacks only when the
	// transport misbehaved (see the chaos mode) — and the per-shard
	// attempt audit, one entry per shard per round. Its Queries counts the answers of
	// failed attempts too; the point's own Queries does not.
	distrib.Metrics
	// Chaos holds the fault injector's totals for the chaos modes, nil
	// elsewhere.
	Chaos       *distrib.ChaosStats
	RoundDetail []DistributedRound
}

// DistributedRound is one session round's wire audit.
type DistributedRound struct {
	Round        int
	JobBytes     int64 // bytes of the jobs workers prepared cold this round
	WarmJobBytes int64 // bytes of the jobs workers re-ran warm this round
	CacheHits    int
	Queries      int
	AlignTime    time.Duration
}

// DistributedConfig parameterizes RunDistributedPoints beyond the
// preset.
type DistributedConfig struct {
	// Workers caps concurrent shard execution (pipelines in-process,
	// worker connections distributed); ≤ 0 uses the preset's Workers
	// (minimum 1).
	Workers int
	// WorkerCmd, when non-empty, adds a subprocess-transport run
	// spawning this command with -worker per worker — a built
	// `activeiter` binary.
	WorkerCmd string
	// Rounds > 1 adds the sticky-session modes: the budget splits across
	// this many retrain-after-labels rounds, each shard's later rounds
	// re-run warm by the worker that prepared it — over loopback, and
	// over subprocess workers when a worker command is configured.
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
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, err
	}
	f, err := pr.firstFold(1300)
	if err != nil {
		return nil, err
	}
	budget := pr.maxBudget()
	workers := cfg.Workers
	if workers <= 0 {
		workers = pr.workers()
	}
	// An explicit -partitions 1 means a genuine monolithic single-shard
	// plan (the '≤1 = monolithic' contract of the flag); only the unset
	// zero falls back to a 2-shard default.
	k := pre.Partitions
	if k <= 0 {
		k = 2
	}
	train := distrib.TrainConfig{FeatureSet: distrib.FeaturesFull, Strategy: distrib.StrategyConflict, Seed: pre.Seed}
	score := func(p *DistributedPoint, res *partition.Result) {
		conf := eval.ScoreTest(f.split.TestPos, f.split.TestNeg, res.Label, res.WasQueried)
		p.F1, p.Precision, p.Recall = conf.F1(), conf.Precision(), conf.Recall()
		p.Rejected = res.Rejected
	}

	// In-process reference: the NewPartitioned path, resolved from the
	// same TrainConfig the distributed modes ship.
	plan, err := pr.plan(f, budget, k)
	if err != nil {
		return nil, err
	}
	inprocTrain, err := train.TrainOptions()
	if err != nil {
		return nil, err
	}
	inprocTrain.Workers = workers
	inproc, err := partition.Align(pr.base, plan, inprocTrain, pr.truth)
	if err != nil {
		return nil, fmt.Errorf("distributed: in-process reference: %w", err)
	}
	ref := DistributedPoint{
		Mode: "in-process", Partitions: len(plan.Parts), Workers: workers,
		Queries: inproc.QueryCount(), AlignTime: inproc.Elapsed,
	}
	score(&ref, inproc)
	points := []DistributedPoint{ref}

	// runSession runs the problem as a session of the given number of
	// rounds over one transport; single-shot dispatch is the one-round
	// session. Sessions mutate their plan (per-round rebudget + label
	// appends), so every mode plans afresh; the protocol's cached planner
	// keeps that cheap. The base counter is already warm from planning;
	// the session exports its worker seed from it rather than recounting.
	runSession := func(mode string, transport distrib.Transport, rounds int, opts distrib.Options) error {
		p, err := pr.plan(f, budget, k)
		if err != nil {
			return err
		}
		opts.Train, opts.Workers, opts.Base, opts.Tracer = train, workers, pr.base, cfg.Tracer
		sess, err := distrib.NewSession(transport, pr.pair, opts)
		if err != nil {
			return err
		}
		defer sess.Close()
		point := DistributedPoint{Mode: mode, Partitions: len(p.Parts), Workers: workers, Rounds: rounds}
		var res *partition.Result
		start := time.Now()
		for r := 0; r < rounds; r++ {
			p.Rebudget(partition.RoundBudget(budget, rounds, r))
			t0 := time.Now()
			var m *distrib.Metrics
			res, m, err = sess.Run(p, pr.truth)
			if err != nil {
				return fmt.Errorf("distributed: %s round %d: %w", mode, r+1, err)
			}
			p.AppendLabels(res.QueriedLabels())
			point.Queries += res.QueryCount()
			if rounds > 1 {
				point.RoundDetail = append(point.RoundDetail, DistributedRound{
					Round: r + 1, JobBytes: m.JobBytes, WarmJobBytes: m.DeltaBytes,
					CacheHits: m.CacheHits, Queries: m.Queries, AlignTime: time.Since(t0),
				})
			}
		}
		point.AlignTime = time.Since(start)
		score(&point, res)
		point.Metrics = *sess.Metrics()
		points = append(points, point)
		return nil
	}
	subprocess := func() distrib.Transport {
		return &distrib.Exec{Cmd: cfg.WorkerCmd, Args: []string{"-worker"}, Stderr: os.Stderr}
	}

	if err := runSession("loopback", distrib.Loopback{}, 1, distrib.Options{}); err != nil {
		return nil, err
	}
	if cfg.WorkerCmd != "" {
		if err := runSession("subprocess", subprocess(), 1, distrib.Options{}); err != nil {
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
			inner = subprocess()
			mode = "subprocess/chaos"
		}
		chaos := &distrib.ChaosTransport{Inner: inner, Opts: distrib.ChaosOptions{
			Seed:       cfg.ChaosSeed,
			RefuseRate: 0.10, DropRate: 0.30, CorruptRate: 0.10, CrashRate: 0.10,
		}}
		if err := runSession(mode, chaos, 1, distrib.Options{Retry: retry.Policy{Attempts: 5, Timeout: 10 * time.Second}}); err != nil {
			return nil, err
		}
		// The injector's totals ride on the point (tabulated as a table
		// note) rather than a stderr side channel.
		s := chaos.Stats()
		points[len(points)-1].Chaos = &s
	}

	// Sticky-session modes: the same problem as a multi-round active
	// loop, whose workers re-run each shard warm after round 1.
	if cfg.Rounds > 1 {
		if err := runSession("loopback/rounds", distrib.Loopback{}, cfg.Rounds, distrib.Options{}); err != nil {
			return nil, err
		}
		if cfg.WorkerCmd != "" {
			if err := runSession("subprocess/rounds", subprocess(), cfg.Rounds, distrib.Options{}); err != nil {
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
		Cols:      []string{"F1", "Precision", "Recall", "queries", "rejected", "align", "job bytes", "seed bytes", "warm job bytes", "cache hit/miss", "attempts", "retries", "fallbacks"},
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
		warmBytes, cache := "—", "—"
		if p.Rounds > 1 {
			warmBytes = fmt.Sprint(p.DeltaBytes)
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
			warmBytes,
			cache,
			attempts,
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
		if p.Rounds > 1 || p.Retries+p.Fallbacks == 0 {
			continue
		}
		for _, sm := range p.Shards {
			fallback := "—"
			if sm.Fallback {
				fallback = "yes"
			}
			shards.Rows = append(shards.Rows, TableRow{
				Label: fmt.Sprintf("%s#s%d", p.Mode, sm.Shard),
				Cells: []string{
					"—", "—", "—", "—", "—", "—",
					fmt.Sprint(sm.JobBytes),
					"—", "—", "—",
					fmt.Sprint(sm.Attempts),
					"—",
					fallback,
				},
			})
		}
	}
	if len(shards.Rows) > 0 {
		shards.Name = "per shard (attempts / fallbacks)"
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
					fmt.Sprint(r.WarmJobBytes),
					fmt.Sprint(r.CacheHits),
					"—", "—", "—",
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
