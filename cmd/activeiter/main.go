// Command activeiter aligns two social networks: it loads (or generates)
// an aligned pair, hides a fraction of the ground-truth anchors, trains
// the ActiveIter model on the rest, and reports the inferred anchor
// links with evaluation metrics.
//
// Usage:
//
//	activeiter -preset small -budget 50 -train-frac 0.1 -np-ratio 20
//	activeiter -data pair.json -budget 100 -strategy conflict
//
// Worker mode turns the binary into a distributed-alignment shard
// worker (see README §Distributed alignment): `-worker` speaks the wire
// protocol on stdin/stdout for a coordinator that spawned it,
// `-worker-listen addr` accepts coordinator TCP connections instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	activeiter "github.com/activeiter/activeiter"
	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "activeiter:", err)
		os.Exit(1)
	}
}

// run is main minus the exit code, for the command's smoke tests. The
// worker modes still own the process's real stdin/stdout: they carry
// the wire protocol.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("activeiter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dataFile := fs.String("data", "", "aligned pair JSON (from cmd/datagen); empty generates from -preset")
	preset := fs.String("preset", "small", "dataset preset when -data is empty: tiny, small, paper, full, xl")
	trainFrac := fs.Float64("train-frac", 0.1, "fraction of ground-truth anchors used as labeled training data")
	npRatio := fs.Int("np-ratio", 20, "negatives sampled per positive (the paper's θ)")
	autoCands := fs.Bool("auto-candidates", false, "propose candidates from meta diagram evidence instead of sampling negatives")
	perUser := fs.Int("per-user", 5, "candidates proposed per user with -auto-candidates")
	budget := fs.Int("budget", 0, "active-learning query budget (0 = Iter-MPMD)")
	batch := fs.Int("batch", 5, "query batch size per round (the paper's k)")
	strategy := fs.String("strategy", "conflict", "query strategy: conflict, random, uncertainty")
	pathsOnly := fs.Bool("paths-only", false, "use meta path features only (no meta diagrams)")
	exact := fs.Bool("exact", false, "use exact Hungarian selection instead of greedy")
	seed := fs.Int64("seed", 1, "random seed")
	showTop := fs.Int("show", 10, "print this many predicted anchors")
	worker := fs.Bool("worker", false, "run as a distributed-alignment worker on stdin/stdout (all other flags ignored)")
	workerListen := fs.String("worker-listen", "", "run as a distributed-alignment worker accepting coordinator TCP connections on this address")
	saveSnapshot := fs.String("save-snapshot", "", "persist the trained alignment as a serving artifact at this path (see docs/SNAPSHOT.md; serve it with alignd)")
	metricsListen := fs.String("metrics-listen", "", "serve Prometheus text metrics on this address at /metricsz (worker modes: shard/seed/cache counters; empty = off)")
	pprofListen := fs.String("pprof-listen", "", "serve net/http/pprof profiles on this address at /debug/pprof/ (off by default; never exposed on the wire-protocol port)")
	logLevel := fs.String("log-level", "", "structured log level: debug, info, warn, error (empty = info)")
	if err := fs.Parse(args); err != nil {
		return err
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
		fmt.Fprintf(stderr, "activeiter: metrics on http://%s/metricsz\n", addr)
	}
	if *pprofListen != "" {
		addr, err := telemetry.ListenAndServeDebug(*pprofListen, telemetry.PprofMux())
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(stderr, "activeiter: pprof on http://%s/debug/pprof/\n", addr)
	}

	if *worker {
		// Stdout belongs to the wire protocol in worker mode; anything
		// human-readable goes to stderr.
		err := activeiter.ServeWorker(struct {
			io.Reader
			io.Writer
		}{os.Stdin, os.Stdout})
		if err != nil && err != io.EOF {
			return err
		}
		return nil
	}
	if *workerListen != "" {
		fmt.Fprintf(stderr, "activeiter: worker listening on %s\n", *workerListen)
		// A long-lived worker dies by operator signal far more often than
		// by listener failure; turn SIGINT/SIGTERM into a clean exit so
		// process supervisors see an orderly shutdown, not a crash.
		errc := make(chan error, 1)
		go func() { errc <- activeiter.ListenAndServeWorker(*workerListen) }()
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case err := <-errc:
			return err
		case s := <-sig:
			fmt.Fprintf(stderr, "activeiter: %v: worker listener shutting down\n", s)
		}
		return nil
	}

	pair, err := loadPair(*dataFile, *preset)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	anchors := append([]activeiter.Anchor{}, pair.Anchors...)
	rng.Shuffle(len(anchors), func(i, j int) { anchors[i], anchors[j] = anchors[j], anchors[i] })
	nTrain := int(float64(len(anchors)) * *trainFrac)
	if nTrain < 1 {
		nTrain = 1
	}
	trainPos, testPos := anchors[:nTrain], anchors[nTrain:]
	neg, err := activeiter.SampleNegatives(pair, *npRatio*len(anchors), rng)
	if err != nil {
		return err
	}

	opts := activeiter.Options{
		Budget:         *budget,
		BatchSize:      *batch,
		Strategy:       activeiter.StrategyKind(*strategy),
		ExactSelection: *exact,
		Seed:           *seed,
	}
	if *pathsOnly {
		opts.Features = activeiter.PathFeatures
	}
	aligner, err := activeiter.New(pair, opts)
	if err != nil {
		return err
	}
	var cands []activeiter.Anchor
	if *autoCands {
		cands, err = aligner.CandidatePairs(trainPos, *perUser)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "pool: %d training anchors, %d hidden anchors, %d diagram-proposed candidates\n",
			len(trainPos), len(testPos), len(cands))
	} else {
		cands = append(append([]activeiter.Anchor{}, testPos...), neg...)
		fmt.Fprintf(stdout, "pool: %d training anchors, %d hidden anchors, %d sampled negatives\n",
			len(trainPos), len(testPos), len(neg))
	}
	res, err := aligner.Align(trainPos, cands, activeiter.NewTruthOracle(pair))
	if err != nil {
		return err
	}
	m := activeiter.EvaluateAlignment(res, testPos, neg)
	fmt.Fprintf(stdout, "queries spent: %d\n", res.QueryCount())
	fmt.Fprintf(stdout, "F1=%.3f  Precision=%.3f  Recall=%.3f  Accuracy=%.3f  (TP=%d FP=%d FN=%d TN=%d)\n",
		m.F1, m.Precision, m.Recall, m.Accuracy, m.TP, m.FP, m.FN, m.TN)

	if *saveSnapshot != "" {
		snap, err := activeiter.BuildSnapshot(activeiter.SnapshotMonolithic, pair, res, opts)
		if err != nil {
			return err
		}
		if err := activeiter.WriteSnapshot(snap, *saveSnapshot); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "snapshot: wrote %s (%d matches, %d pool links; serve with: alignd -snapshot %s)\n",
			*saveSnapshot, len(snap.Matches), len(snap.Pool), *saveSnapshot)
	}

	pred := res.PredictedAnchors()
	fmt.Fprintf(stdout, "predicted %d anchor links; first %d:\n", len(pred), min(*showTop, len(pred)))
	truth := pair.AnchorSet()
	for i, a := range pred {
		if i >= *showTop {
			break
		}
		mark := "✗"
		if truth[key(a)] {
			mark = "✓"
		}
		fmt.Fprintf(stdout, "  %s %s ↔ %s\n", mark,
			pair.G1.NodeID(activeiter.User, a.I), pair.G2.NodeID(activeiter.User, a.J))
	}
	return nil
}

func key(a activeiter.Anchor) int64 { return int64(a.I)<<31 | int64(a.J) }

func loadPair(dataFile, preset string) (*activeiter.AlignedPair, error) {
	if dataFile != "" {
		f, err := os.Open(dataFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return activeiter.ReadAlignedJSON(f)
	}
	cfg, err := datagen.Preset(preset)
	if err != nil {
		return nil, err
	}
	return activeiter.GenerateDataset(cfg)
}
