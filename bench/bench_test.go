package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/telemetry"
)

// metricNameRE is the driver contract's pattern for a metric name.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMain lets the smoke's serve workloads re-execute this test binary
// as their reference echo server.
func TestMain(m *testing.M) {
	childMode()
	os.Exit(m.Run())
}

func TestPercentileSelectsMeasuredSamples(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("p99 of one sample = %v, want the sample", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("empty input must give NaN, not a made-up number")
	}
	if xs[0] != 9 {
		t.Error("percentile reordered its input")
	}
}

func TestMedianAndQuartilesMatchTheDriversRule(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: the exclusive
	// method extrapolates on tiny samples, and so must this.
	q1, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-sample quartiles = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestMedianRatioPairsBeforeItReduces pins the gated ratio's rule: each
// op over its own reference, then the median — not a ratio of medians,
// which a slow stretch that hits both would shift.
func TestMedianRatioPairsBeforeItReduces(t *testing.T) {
	op := []float64{10, 10, 30, 30, 30}
	ref := []float64{5, 5, 10, 10, 20} // pair ratios 2, 2, 3, 3, 1.5; medians 30 and 10
	if got := medianRatio(op, ref); got != 2 {
		t.Errorf("medianRatio = %v, want 2", got)
	}
	if got := median(op) / median(ref); got == 2 {
		t.Error("the example no longer tells pairing from a ratio of medians")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []telemetry.SpanData{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 50}, // overlaps 3 on [30,50)
		{ID: 3, Parent: 1, Start: 30, End: 70},
		{ID: 4, Parent: 1, Start: 90, End: 130}, // runs past the parent: clipped to [90,100)
		{ID: 5, Parent: 2, Start: 20, End: 30},  // grandchild: covers its own parent only
		{ID: 6, Parent: 1, Start: 35, End: 45},  // wholly inside an already-covered stretch
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{
		1: 100 - (60 + 10), // children cover [10,70) ∪ [90,100)
		2: 40 - 10,
		3: 40,
		4: 40,
		5: 10,
		6: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// TestOpenLoopTimesFromDueTime pins the accounting that separates an
// open loop from a closed one: when the server stalls once, the requests
// scheduled during the stall are sent late, and their latency — taken
// from when they were due — includes that wait. A closed loop against
// the same server sees one slow request and nothing else.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 120 * time.Millisecond
	newServer := func() *httptest.Server {
		var n atomic.Int64
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.Add(1) == 1 {
				time.Sleep(stall)
			}
			w.WriteHeader(http.StatusOK)
		}))
	}
	ring := []request{{method: http.MethodGet, path: "/", wantStatus: http.StatusOK}}
	fx := &serveFixture{client: &http.Client{}, limit: 20 * time.Millisecond}
	slowerThan := func(xs []float64, d time.Duration) int {
		n := 0
		for _, x := range xs {
			if x > d.Seconds() {
				n++
			}
		}
		return n
	}

	srv := newServer()
	open := fx.loadgen(context.Background(), 400*time.Millisecond, 100, 1, srv.URL, "", ring)
	srv.Close()
	if open.attempted != 40 || open.failed != 0 {
		t.Fatalf("open loop sent %d (failed %d), want the 40 the schedule holds", open.attempted, open.failed)
	}
	// Requests due at 10, 20, … 110 ms wait behind the stalled first
	// one; those due in its first half wait more than half of it.
	if n := slowerThan(open.latS, stall/2); n < 6 {
		t.Errorf("only %d open-loop requests show the stall in their latency, want ≥ 6", n)
	}
	if n := slowerThan(open.lateS, stall/2); n < 5 {
		t.Errorf("only %d open-loop requests were recorded as sent late, want ≥ 5", n)
	}
	if open.overLimit < 8 {
		t.Errorf("overLimit = %d, want the stalled requests counted as SLO misses", open.overLimit)
	}
	for i, lat := range open.latS {
		if lat < open.lateS[i] {
			t.Fatalf("request %d: latency %v below its own lateness %v", i, lat, open.lateS[i])
		}
	}

	srv = newServer()
	closed := fx.loadgen(context.Background(), 400*time.Millisecond, 0, 1, srv.URL, "", ring)
	srv.Close()
	// One stalled request and nothing queued behind it (a second slow
	// one is tolerated: tier-1 runs this beside every other package).
	if n := slowerThan(closed.latS, stall/2); n < 1 || n > 2 {
		t.Errorf("%d closed-loop requests were slow, want the stalled one alone", n)
	}
	if closed.attempted < 10 {
		t.Errorf("closed loop completed only %d requests in 400ms", closed.attempted)
	}
}

// TestBenchmarkJSONMeetsTheContract checks the declaration file against
// the driver contract's limits and against the workloads this program
// really has.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside [1,60]", spec.RunSeconds)
	}
	want := workloads()
	if len(spec.Workloads) != len(want) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(want))
	}
	seen := map[string]bool{}
	for i, w := range spec.Workloads {
		if w.Name != want[i].name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, want[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics outside the contract's limits", len(spec.EndToEnd), len(spec.PerLayer))
	}
	hasSetup := false
	for _, group := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range group {
			if !metricNameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or used twice", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s (s, lower) among the end-to-end metrics")
	}
	for _, m := range spec.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s must not carry a bound", m.Name)
		}
	}
}

// smokeRun executes one workload at the quick preset and validates
// what it reports against BENCHMARK.json.
func smokeRun(t *testing.T, name string, trace int) {
	t.Helper()
	o := options{workload: name, seed: 3, seconds: 1, trace: trace, preset: "quick", sets: 1}
	e, err := newEnv(o)
	if err != nil {
		t.Fatal(err)
	}
	e.setupRepeats = 1
	defer e.cleanup()
	spec, err := loadSpec(e.root)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, err := runWorkload(ctx, e, w)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Correct {
		t.Errorf("correctness checks failed: %v", d.Violations)
	}
	if d.Attempted < 1 || d.Failed != 0 {
		t.Errorf("attempted %d, failed %d", d.Attempted, d.Failed)
	}
	if fr := d.Extra["fail_ratio"]; name != "fleet_churn" && fr.Value != 0 {
		t.Errorf("fail_ratio = %v outside fleet_churn", fr.Value)
	}
	for _, group := range []metrics{d.EndToEnd, d.Extra, d.PerLayer} {
		for mname, m := range group {
			if !metricNameRE.MatchString(mname) {
				t.Errorf("metric name %q does not match the contract's pattern", mname)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("metric %s is %v", mname, m.Value)
			}
		}
	}
	e2e, err := project(spec.EndToEnd, d.EndToEnd, false)
	if err != nil {
		t.Fatalf("end-to-end metrics: %v", err)
	}
	for mname, m := range e2e {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v; the contract wants it never 0", mname, m.Value)
		}
	}
	if trace == 1 {
		layer, err := project(spec.PerLayer, d.PerLayer, true)
		if err != nil {
			t.Fatalf("per-layer metrics: %v", err)
		}
		if u := layer["bench.unexplained_ratio"].Value; u < 0 || u > 0.15 {
			t.Errorf("bench.unexplained_ratio = %v", u)
		}
		for _, must := range applicable[name] {
			if layer[must].Value == 0 {
				t.Errorf("per-layer metric %s is on %s's path but read 0", must, name)
			}
		}
	}
}

// applicable names, per workload, per-layer metrics that must be
// non-zero in its traced run — one or two from every layer the workload
// is there to stress.
var applicable = map[string][]string{
	"mono_cold":     {"bench.ref_op_ms", "align_p50_s", "alloc_mb_per_op", "sparse.spgemm_flops", "sparse.matmul_serial_s", "metadiag.count_cold_s", "metadiag.count_cold_max_s", "core.train_s", "linalg.ridge_factor_s", "matching.greedy_s", "datagen.generate_s"},
	"fold_warm":     {"align_p50_s", "metadiag.count_warm_s", "metadiag.cache_hit_ratio", "metadiag.feature_matrix_s", "core.train_s", "core.queries"},
	"shard_inproc":  {"align_p50_s", "partition.new_planner_s", "partition.plan_s", "partition.overlap_ratio", "partition.prepare_part_max_s", "partition.parallel_speedup", "partition.merge_s", "multinet.reconcile_s", "metadiag.count_fork_s"},
	"shard_subproc": {"align_p50_s", "wire_bytes_per_op", "distrib.job_bytes", "distrib.seed_bytes", "distrib.seed_ships", "distrib.result_bytes", "distrib.round1_s", "distrib.round_next_s", "framing.write_mb_per_s", "framing.dec_float64s_mb_per_s", "metadiag.seed_nnz"},
	"serve_read":    {"bench.ref_op_ms", "bench.idle_spinners", "req_paired_p50_us", "req_p50_us", "req_p99_us", "req_per_s", "serve.match_ns", "serve.handler_match_us", "serve.http_leg_us", "serve.index_build_s", "serve.alignd_peak_rss_mb", "snapshot.bytes", "snapshot.read_s"},
	"fleet_churn":   {"bench.ref_op_ms", "req_paired_p50_us", "req_p50_us", "req_per_s", "reload_p50_ms", "sync_p50_ms", "sync_wire_frac", "fleet.route_owner_us", "fleet.route_fanout_us", "fleet.hop_ratio", "fleet.rollout_s", "setsync.decompose_s", "setsync.tx_bytes", "snapshot.split_s", "snapshot.merge_s"},
}

// TestSmoke runs every workload, untraced and traced, at the quick
// preset. Under the race detector only fold_warm runs: the detector's
// slowdown would push six workloads with real server processes past the
// tier-1 time budget.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs build binaries and start servers")
	}
	for _, w := range workloads() {
		if raceEnabled && w.name != "fold_warm" {
			continue
		}
		for trace := 0; trace <= 1; trace++ {
			mode := "untraced"
			if trace == 1 {
				mode = "traced"
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) { smokeRun(t, w.name, trace) })
		}
	}
}
