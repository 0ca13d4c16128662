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
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
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
	cfg.WorkerCmd = workerCmd
	return cfg
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is main minus the exit code, for the command's smoke tests.
func run(args []string, stdout, stderr io.Writer) error {
	registry := experiments.Registry()
	var names, sharded []string
	for _, e := range registry {
		names = append(names, e.Name)
		if e.Partitions {
			sharded = append(sharded, e.Name)
		}
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, ", ")+", all")
	preset := fs.String("preset", "small", "protocol preset: tiny, small, paper, full, xl")
	workers := fs.Int("workers", 0, "override how many folds train at once (0 = serial)")
	seed := fs.Int64("seed", 0, "override the preset seed")
	partitions := fs.Int("partitions", 0, "shard every fold's candidate space this many ways (≤1 = one part) in "+strings.Join(sharded, ", ")+"; the PU family trains per part and reconciles, the SVM baselines and every other experiment train each fold as one part")
	distribWorkers := fs.Int("distrib-workers", 0, "distributed experiment: concurrent shard workers (0 = preset default)")
	distribWorkerCmd := fs.String("distrib-worker-cmd", "", "distributed experiment: worker binary to spawn per connection (runs with -worker; empty = in-process loopback transport only)")
	distribRounds := fs.Int("distrib-rounds", 0, "distributed experiment: split the budget across this many sticky-session retrain rounds (≤1 = single-shot dispatch); adds sticky-session modes whose workers re-run each shard warm after round 1")
	distribChaos := fs.Int64("distrib-chaos", 0, "distributed experiment: add a fault-injected loopback mode seeded with this value (refused dials, mid-frame drops, corruption, crashes); the alignment must match the healthy modes, with the retries/fallbacks columns showing the recovery work (0 = off)")
	saveSnapshot := fs.String("save-snapshot", "", "train one alignment on the preset (facade chosen by -partitions/-distrib-* flags) and persist it as a serving artifact at this path instead of running experiments (serve it with alignd)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON of the distributed experiment's shard spans (coordinator + workers, stitched across processes) to this path; open it at chrome://tracing or ui.perfetto.dev")
	metricsListen := fs.String("metrics-listen", "", "serve Prometheus text metrics on this address at /metricsz while experiments run (empty = off)")
	logLevel := fs.String("log-level", "", "structured log level: debug, info, warn, error (empty = info)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Names first: a typo must not cost a dataset or a listener.
	var selected []experiments.Experiment
	for _, e := range registry {
		if *exp == "all" || *exp == e.Name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (want %s or all)", *exp, strings.Join(names, ", "))
	}
	pre, err := presetByName(*preset)
	if err != nil {
		return err
	}
	ov := overrides{workers: *workers, seed: *seed, partitions: *partitions, distribWorkers: *distribWorkers, distribRounds: *distribRounds, distribChaos: *distribChaos, set: map[string]bool{}}
	fs.Visit(func(f *flag.Flag) { ov.set[f.Name] = true })
	if err := ov.validate(); err != nil {
		return err
	}
	ov.apply(&pre)
	distribCfg := ov.distributedConfig(*distribWorkerCmd)
	if *traceOut != "" {
		distribCfg.Tracer = telemetry.NewTracer("coordinator")
	}

	if *logLevel != "" {
		if err := telemetry.SetLogLevel(*logLevel); err != nil {
			return err
		}
	}
	if *metricsListen != "" {
		addr, err := telemetry.ListenAndServeDebug(*metricsListen, telemetry.MetricsMux(telemetry.Default))
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Fprintf(stderr, "experiments: metrics on http://%s/metricsz\n", addr)
	}

	if *saveSnapshot != "" {
		return runSaveSnapshot(stdout, pre, distribCfg, *saveSnapshot)
	}

	for _, e := range selected {
		start := time.Now()
		tab, err := e.Run(pre, distribCfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		tab.Render(stdout)
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if *traceOut != "" {
		if err := distribCfg.Tracer.WriteChromeFile(*traceOut); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(stderr, "experiments: wrote %d spans to %s\n", len(distribCfg.Tracer.Spans()), *traceOut)
	}
	return nil
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
func runSaveSnapshot(stdout io.Writer, pre experiments.Preset, cfg experiments.DistributedConfig, path string) error {
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

	// One aligner under every facade; the label only decides where its
	// parts run.
	var sa *activeiter.Aligner
	start := time.Now()
	switch {
	case proto.Facade != activeiter.SnapshotDistributed:
		sa, err = activeiter.New(pair, opts)
	case cfg.WorkerCmd != "":
		sa, err = activeiter.NewDistributed(pair, opts, activeiter.NewWorkerProcessTransport(cfg.WorkerCmd, "-worker"))
	default:
		sa, err = activeiter.NewDistributed(pair, opts, activeiter.NewLoopbackTransport())
	}
	if err != nil {
		return err
	}
	res, err := sa.Align(trainPos, cands, oracle)
	if err != nil {
		return err
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
	fmt.Fprintf(stdout, "snapshot: %s facade on preset %s: trained in %v, F1=%.4f\n",
		proto.Facade, pre.Name, trained.Round(time.Millisecond), m.F1)
	fmt.Fprintf(stdout, "snapshot: wrote %s (%d matches, %d pool links, %d queried labels)\n",
		path, len(snap.Matches), len(snap.Pool), len(snap.Labels))
	fmt.Fprintf(stdout, "snapshot: serve with: alignd -snapshot %s\n", path)
	return nil
}
