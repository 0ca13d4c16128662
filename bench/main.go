// Command bench is the repository's benchmark: one instrument for both
// north-star paths — label → model through the three public aligner
// facades, request → answer through real alignd/alignr processes — with
// six named workloads, end-to-end metrics measured with tracing off and
// per-layer metrics from a separate traced run. See README.md in this
// directory for every metric's definition and BENCHMARK.json at the
// repository root for names, units and regression bounds.
//
//	go run ./bench                                    all six workloads, untraced + traced
//	go run ./bench -sets 5                            five sets, spread against the bounds
//	go run ./bench --workload mono_cold --seed 7 --seconds 10 --trace 0
//
// The last form is the driver contract: one workload, one run, one JSON
// object on the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/activeiter/activeiter/internal/telemetry"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	preset   string
	sets     int
}

// env is what a workload run needs besides its own fixture.
type env struct {
	root   string // module root
	outDir string // bench/out: result.json, traces, per-run details
	tmpDir string // per-run scratch inside outDir, removed on exit
	opts   options
	preset preset
	tr     tracer
	// setupRepeats is how many times an untraced run sets up from
	// scratch; setup_s is the median, so one slow first build or a cold
	// page cache does not decide it.
	setupRepeats int
}

// workload is one named benchmark input; setup builds its fixture and
// is what setup_s times.
type workload struct {
	name  string
	setup func(ctx context.Context, e *env) (fixture, error)
}

// fixture is a set-up workload: measure runs the timed phases, probe
// adds the per-layer measurements of a traced run, close stops what
// set-up started.
type fixture interface {
	measure(ctx context.Context, e *env, d *runDetail) error
	probe(ctx context.Context, e *env, d *runDetail) error
	close()
}

// workloads lists the six in the order BENCHMARK.json declares them.
func workloads() []workload {
	var out []workload
	for _, name := range []string{"mono_cold", "fold_warm", "shard_inproc", "shard_subproc"} {
		name := name // go.mod is below go 1.22: the loop variable is shared
		out = append(out, workload{name, func(ctx context.Context, e *env) (fixture, error) { return setupTrain(ctx, e, name) }})
	}
	for _, name := range []string{"serve_read", "fleet_churn"} {
		name := name
		out = append(out, workload{name, func(ctx context.Context, e *env) (fixture, error) { return setupServe(ctx, e, name) }})
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSetupRepeats suits set-ups of a fraction of a second, which
// all six are at the default preset.
const defaultSetupRepeats = 5

// runWorkload executes one run of w: repeated set-up, the measured
// phases, and — traced runs only — the per-layer probes.
func runWorkload(ctx context.Context, e *env, w workload) (*runDetail, error) {
	d := &runDetail{
		Workload:    w.name,
		Trace:       e.opts.trace == 1,
		Provenance:  newProvenance(e.root, e.opts),
		Correct:     true,
		EndToEnd:    metrics{},
		Extra:       metrics{},
		PerLayer:    metrics{},
		FoldAnchors: map[string]string{},
	}
	repeats := e.setupRepeats
	if d.Trace {
		repeats = 1
		e.tr = tracer{t: telemetry.NewTracer("bench " + w.name)}
	}
	var fx fixture
	defer func() {
		if fx != nil {
			fx.close()
		}
	}()
	var setups []float64
	for r := 0; r < repeats; r++ {
		if fx != nil {
			fx.close()
			fx = nil
		}
		runtime.GC()
		t0 := time.Now()
		// A failed set-up has closed what it started; keeping its typed
		// nil out of fx keeps the deferred close off a nil fixture.
		next, err := w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		fx = next
		setups = append(setups, time.Since(t0).Seconds())
	}
	d.EndToEnd.set("setup_s", median(setups), "s")

	if err := fx.measure(ctx, e, d); err != nil {
		return nil, err
	}
	if d.Trace {
		if err := fx.probe(ctx, e, d); err != nil {
			return nil, fmt.Errorf("per-layer probes: %w", err)
		}
		tracePath := filepath.Join(e.outDir, "trace_"+w.name+".json")
		if err := e.tr.t.WriteChromeFile(tracePath); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// newEnv resolves paths and the CPU budget. The benchmark runs at
// GOMAXPROCS = min(NumCPU, 4) and refuses a setting above the core
// count: oversubscribed numbers compare with nothing.
func newEnv(o options) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	p, ok := presets()[o.preset]
	if !ok {
		return nil, fmt.Errorf("unknown preset %q (want default, mid or quick)", o.preset)
	}
	if g := runtime.GOMAXPROCS(0); g > runtime.NumCPU() {
		return nil, fmt.Errorf("GOMAXPROCS=%d exceeds the %d available cores", g, runtime.NumCPU())
	}
	if runtime.GOMAXPROCS(0) > 4 {
		runtime.GOMAXPROCS(4)
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, outDir: outDir, tmpDir: tmp, opts: o, preset: p, setupRepeats: defaultSetupRepeats}, nil
}

// measureFor is the length of the measured phases: --seconds, or half
// of it in a traced run, which spends the other half on replays and
// probes.
func (e *env) measureFor() time.Duration {
	d := time.Duration(e.opts.seconds) * time.Second
	if e.opts.trace == 1 {
		d /= 2
	}
	return d
}

// cleanup removes the scratch directory; with the fixture's close it
// runs on success, failure, timeout and SIGINT.
func (e *env) cleanup() {
	_ = os.RemoveAll(e.tmpDir) // scratch only; a leftover is harmless
}

// detailPath names the per-run detail file the suite mode reads back.
func detailPath(outDir, workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", workload, trace))
}

// runContract is the driver-facing mode: one workload, one run, the
// contract object on the last line.
func runContract(ctx context.Context, o options) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	e, err := newEnv(o)
	if err != nil {
		return err
	}
	defer e.cleanup()
	spec, err := loadSpec(e.root)
	if err != nil {
		return err
	}
	d, err := runWorkload(ctx, e, w)
	if err != nil {
		return err
	}
	line := contractLine{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed}
	if d.Trace {
		line.Metrics, err = project(spec.PerLayer, d.PerLayer, true)
	} else {
		line.Metrics, err = project(spec.EndToEnd, d.EndToEnd, false)
	}
	if err != nil {
		return err
	}
	if err := writeJSON(detailPath(e.outDir, w.name, o.trace), d); err != nil {
		return err
	}
	printDetail(os.Stdout, d)
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func main() {
	childMode()
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver-contract JSON object as the last line (empty: run all six, untraced and traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs; equal seeds give equal inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds per run (BENCHMARK.json's run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer variant of -workload, 0 the untraced end-to-end one")
	flag.StringVar(&o.preset, "preset", "default", "input size: default, mid (the issue's half-FullScale pair; needs a longer -seconds) or quick (smoke only, never a baseline)")
	flag.IntVar(&o.sets, "sets", 1, "run this many full sets back to back and compare them against the bounds in BENCHMARK.json")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || o.sets < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments (want -seconds ≥ 1, -sets ≥ 1, -trace 0|1, no positional arguments)")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := func() error {
		defer stop()
		if o.workload != "" {
			return runContract(ctx, o)
		}
		return runSuite(ctx, o)
	}()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			err = errors.New("interrupted")
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
