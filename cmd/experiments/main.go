// Command experiments regenerates the paper's tables and figures.
// Performance is measured by the repository benchmark, go run ./bench.
//
// Usage:
//
//	experiments -exp table3 -preset small
//	experiments -exp all -preset paper -workers 16
//	experiments -exp distributed -preset full -partitions 4 \
//	    -distrib-workers 4 -distrib-rounds 3 -distrib-worker-cmd ./activeiter
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	activeiter "github.com/activeiter/activeiter"
	"github.com/activeiter/activeiter/internal/experiments"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// overrides carries the flag values that may replace preset fields. Each
// value only applies when its flag was explicitly set on the command
// line — sentinel checks like "non-zero means set" would make `-seed 0`
// or `-workers 0` silently keep the preset value.
type overrides struct {
	workers        int
	seed           int64
	partitions     int
	distribWorkers int
	distribRounds  int
	distribChaos   int64
	set            map[string]bool // flag name → explicitly set
}

// apply overwrites the preset fields whose flags were explicitly set.
func (o overrides) apply(pre *experiments.Preset) {
	if o.set["workers"] {
		pre.Workers = o.workers
	}
	if o.set["seed"] {
		pre.Seed = o.seed
	}
	if o.set["partitions"] {
		pre.Partitions = o.partitions
	}
}

// validate rejects flag values that would be silently misread
// downstream; the zero values stay legal because `apply` and
// `distributedConfig` only read explicitly-set flags.
func (o overrides) validate() error {
	if o.set["distrib-workers"] && o.distribWorkers < 0 {
		return fmt.Errorf("negative -distrib-workers %d (use 0 for the preset default)", o.distribWorkers)
	}
	if o.set["distrib-rounds"] && o.distribRounds < 0 {
		return fmt.Errorf("negative -distrib-rounds %d (use 0 or 1 for single-shot dispatch)", o.distribRounds)
	}
	return nil
}

// distributedConfig resolves the distributed experiment's knobs: the
// worker cap only overrides the preset when -distrib-workers was
// explicitly on the command line (flag.Visit detection, like -seed).
func (o overrides) distributedConfig(workerCmd string) experiments.DistributedConfig {
	cfg := experiments.DistributedConfig{}
	if o.set["distrib-workers"] {
		cfg.Workers = o.distribWorkers
	}
	if o.set["distrib-rounds"] {
		cfg.Rounds = o.distribRounds
	}
	if o.set["distrib-chaos"] {
		cfg.ChaosSeed = o.distribChaos
	}
	if workerCmd != "" {
		cfg.WorkerCmd = workerCmd
		cfg.WorkerArgs = []string{"-worker"}
	}
	return cfg
}

func main() {
	exp := flag.String("exp", "all", "experiment: table2, table3, table4, fig3, fig4, fig5, ablation-features, ablation-query, ablation-matching, ablation-noise, ablation-words, oracle-noise, unsupervised, stability, scalability, distributed, all")
	preset := flag.String("preset", "small", "protocol preset: tiny, small, paper, full, xl")
	workers := flag.Int("workers", 0, "override parallel cell workers (0 = serial)")
	seed := flag.Int64("seed", 0, "override the preset seed")
	partitions := flag.Int("partitions", 0, "run the PU family of cell-based experiments (table3/table4/fig5/stability/ablation-query) and scalability through partitioned alignment with this many partitions (≤1 = monolithic; fig3/fig4 and the remaining ablations trace training internals and stay monolithic)")
	distribWorkers := flag.Int("distrib-workers", 0, "distributed experiment: concurrent shard workers (0 = preset default)")
	distribWorkerCmd := flag.String("distrib-worker-cmd", "", "distributed experiment: worker binary to spawn per connection (runs with -worker; empty = in-process loopback transport only)")
	distribRounds := flag.Int("distrib-rounds", 0, "distributed experiment: split the budget across this many sticky-session retrain rounds (≤1 = single-shot dispatch); adds full-reship and delta-shipping session modes")
	distribChaos := flag.Int64("distrib-chaos", 0, "distributed experiment: add a fault-injected loopback mode seeded with this value (refused dials, mid-frame drops, corruption, crashes); the alignment must match the healthy modes, with the retries/fallbacks columns showing the recovery work (0 = off)")
	saveSnapshot := flag.String("save-snapshot", "", "train one alignment on the preset (facade chosen by -partitions/-distrib-* flags) and persist it as a serving artifact at this path instead of running experiments (serve it with alignd)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the distributed experiment's shard spans (coordinator + workers, stitched across processes) to this path; open it at chrome://tracing or ui.perfetto.dev")
	metricsListen := flag.String("metrics-listen", "", "serve Prometheus text metrics on this address at /metricsz while experiments run (empty = off)")
	logLevel := flag.String("log-level", "", "structured log level: debug, info, warn, error (empty = info)")
	flag.Parse()

	if *logLevel != "" {
		if err := telemetry.SetLogLevel(*logLevel); err != nil {
			fatal(err)
		}
	}
	if *metricsListen != "" {
		addr, err := telemetry.ListenAndServeDebug(*metricsListen, telemetry.MetricsMux(telemetry.Default))
		if err != nil {
			fatal(fmt.Errorf("metrics listener: %w", err))
		}
		fmt.Fprintf(os.Stderr, "experiments: metrics on http://%s/metricsz\n", addr)
	}

	pre, err := presetByName(*preset)
	if err != nil {
		fatal(err)
	}
	ov := overrides{workers: *workers, seed: *seed, partitions: *partitions, distribWorkers: *distribWorkers, distribRounds: *distribRounds, distribChaos: *distribChaos, set: map[string]bool{}}
	flag.Visit(func(f *flag.Flag) { ov.set[f.Name] = true })
	if err := ov.validate(); err != nil {
		fatal(err)
	}
	ov.apply(&pre)
	distribCfg := ov.distributedConfig(*distribWorkerCmd)
	if *traceOut != "" {
		distribCfg.Tracer = telemetry.NewTracer("coordinator")
	}

	if *saveSnapshot != "" {
		if err := runSaveSnapshot(pre, distribCfg, *saveSnapshot); err != nil {
			fatal(err)
		}
		return
	}

	type runner struct {
		name string
		run  func(experiments.Preset) (*experiments.Table, error)
	}
	runners := []runner{
		{"table2", experiments.RunTable2},
		{"table3", experiments.RunTable3},
		{"table4", experiments.RunTable4},
		{"fig3", func(p experiments.Preset) (*experiments.Table, error) {
			_, tab, err := experiments.RunFig3(p)
			return tab, err
		}},
		{"fig4", func(p experiments.Preset) (*experiments.Table, error) {
			_, tab, err := experiments.RunFig4(p)
			return tab, err
		}},
		{"fig5", experiments.RunFig5},
		{"ablation-features", experiments.RunFeatureAblation},
		{"ablation-query", experiments.RunQueryAblation},
		{"ablation-matching", experiments.RunMatchingAblation},
		{"ablation-noise", experiments.RunOracleNoiseAblation},
		{"ablation-words", experiments.RunWordFeatureAblation},
		{"oracle-noise", experiments.RunOracleNoiseMatrix},
		{"unsupervised", experiments.RunUnsupervisedComparison},
		{"stability", func(p experiments.Preset) (*experiments.Table, error) {
			return experiments.RunStability(p, 3)
		}},
		{"scalability", experiments.RunScalability},
		{"distributed", func(p experiments.Preset) (*experiments.Table, error) {
			return experiments.RunDistributedWith(p, distribCfg)
		}},
	}
	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		start := time.Now()
		tab, err := r.run(pre)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", r.name, err))
		}
		tab.Render(os.Stdout)
		fmt.Printf("(%s completed in %v)\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if *traceOut != "" {
		if err := distribCfg.Tracer.WriteChromeFile(*traceOut); err != nil {
			fatal(fmt.Errorf("write trace: %w", err))
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d spans to %s\n", len(distribCfg.Tracer.Spans()), *traceOut)
	}
}

func presetByName(name string) (experiments.Preset, error) {
	switch name {
	case "tiny":
		return experiments.TinyPreset(), nil
	case "small":
		return experiments.SmallPreset(), nil
	case "paper":
		return experiments.PaperPreset(), nil
	case "full":
		return experiments.FullPreset(), nil
	case "xl":
		return experiments.XLPreset(), nil
	default:
		return experiments.Preset{}, fmt.Errorf("unknown preset %q (want tiny, small, paper, full or xl)", name)
	}
}

// snapshotProtocol is the -save-snapshot export's training protocol,
// resolved from the preset: a fixed 25% train split, the preset's
// fixed NP-ratio (capped so crawl-scale presets stay exportable in
// minutes), its largest query budget, and the facade the flags imply.
type snapshotProtocol struct {
	TrainFrac float64
	NPRatio   int
	Budget    int
	Facade    string
}

// snapshotNPRatioCap bounds the sampled negative pool of an export run.
const snapshotNPRatioCap = 20

// snapshotProtocolFor resolves the export protocol. The facade follows
// the same flags the experiments obey: any -distrib-* setting means
// distributed (subprocess workers when a worker command is given,
// loopback otherwise), -partitions > 1 means partitioned, else the
// monolithic aligner.
func snapshotProtocolFor(pre experiments.Preset, cfg experiments.DistributedConfig) snapshotProtocol {
	p := snapshotProtocol{TrainFrac: 0.25, NPRatio: pre.FixedTheta, Facade: activeiter.SnapshotMonolithic}
	if p.NPRatio <= 0 || p.NPRatio > snapshotNPRatioCap {
		p.NPRatio = snapshotNPRatioCap
	}
	if len(pre.Budgets) > 0 {
		p.Budget = pre.Budgets[len(pre.Budgets)-1]
	}
	switch {
	case cfg.WorkerCmd != "" || cfg.Rounds > 1 || cfg.Workers > 0:
		p.Facade = activeiter.SnapshotDistributed
	case pre.Partitions > 1:
		p.Facade = activeiter.SnapshotPartitioned
	}
	return p
}

// runSaveSnapshot trains one alignment on the preset through the
// flag-selected facade and persists it as a serving artifact.
func runSaveSnapshot(pre experiments.Preset, cfg experiments.DistributedConfig, path string) error {
	proto := snapshotProtocolFor(pre, cfg)
	pair, err := activeiter.GenerateDataset(pre.Data)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(pre.Seed))
	anchors := append([]activeiter.Anchor{}, pair.Anchors...)
	rng.Shuffle(len(anchors), func(i, j int) { anchors[i], anchors[j] = anchors[j], anchors[i] })
	nTrain := int(float64(len(anchors)) * proto.TrainFrac)
	if nTrain < 1 {
		nTrain = 1
	}
	trainPos, testPos := anchors[:nTrain], anchors[nTrain:]
	neg, err := activeiter.SampleNegatives(pair, proto.NPRatio*len(anchors), rng)
	if err != nil {
		return err
	}
	cands := append(append([]activeiter.Anchor{}, testPos...), neg...)
	opts := activeiter.Options{
		Budget:     proto.Budget,
		Seed:       pre.Seed,
		Partitions: pre.Partitions,
		Workers:    cfg.Workers,
		Rounds:     cfg.Rounds,
	}
	oracle := activeiter.NewTruthOracle(pair)

	var res activeiter.AlignmentResult
	start := time.Now()
	if proto.Facade == activeiter.SnapshotMonolithic {
		a, err := activeiter.New(pair, opts)
		if err != nil {
			return err
		}
		if res, err = a.Align(trainPos, cands, oracle); err != nil {
			return err
		}
	} else {
		// Both sharded constructors return the one sharded aligner; the
		// facade only decides where its shards run.
		var sa *activeiter.PartitionedAligner
		if proto.Facade == activeiter.SnapshotPartitioned {
			sa, err = activeiter.NewPartitioned(pair, opts)
		} else if cfg.WorkerCmd != "" {
			sa, err = activeiter.NewDistributed(pair, opts, activeiter.NewWorkerProcessTransport(cfg.WorkerCmd, cfg.WorkerArgs...))
		} else {
			sa, err = activeiter.NewDistributed(pair, opts, activeiter.NewLoopbackTransport())
		}
		if err != nil {
			return err
		}
		if res, err = sa.Align(trainPos, cands, oracle); err != nil {
			return err
		}
	}
	trained := time.Since(start)

	snap, err := activeiter.BuildSnapshot(proto.Facade, pair, res, opts)
	if err != nil {
		return err
	}
	if err := activeiter.WriteSnapshot(snap, path); err != nil {
		return err
	}
	m := activeiter.EvaluateAlignment(res, testPos, neg)
	fmt.Printf("snapshot: %s facade on preset %s: trained in %v, F1=%.4f\n",
		proto.Facade, pre.Name, trained.Round(time.Millisecond), m.F1)
	fmt.Printf("snapshot: wrote %s (%d matches, %d pool links, %d queried labels)\n",
		path, len(snap.Matches), len(snap.Pool), len(snap.Labels))
	fmt.Printf("snapshot: serve with: alignd -snapshot %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
