package activeiter

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"

	"github.com/activeiter/activeiter/internal/distrib"
)

// workerEnv re-executes this test binary as a wire worker so the
// subprocess-transport property test crosses a real process boundary
// without a prebuilt binary.
const workerEnv = "ACTIVEITER_FACADE_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		err := ServeWorker(struct {
			io.Reader
			io.Writer
		}{os.Stdin, os.Stdout})
		if err != nil && err != io.EOF {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// assertSameAsPartitioned compares a distributed result with the
// in-process partitioned reference over the full pool.
func assertSameAsPartitioned(t *testing.T, got, want *PartitionedResult, pool []Anchor) {
	t.Helper()
	ga, wa := got.PredictedAnchors(), want.PredictedAnchors()
	if len(ga) != len(wa) {
		t.Fatalf("distributed predicted %d anchors, partitioned %d", len(ga), len(wa))
	}
	for i := range wa {
		if ga[i] != wa[i] {
			t.Fatalf("anchor %d: distributed %v, partitioned %v", i, ga[i], wa[i])
		}
	}
	if got.QueryCount() != want.QueryCount() {
		t.Errorf("query counts: distributed %d, partitioned %d", got.QueryCount(), want.QueryCount())
	}
	if got.Rejected != want.Rejected {
		t.Errorf("rejected: distributed %d, partitioned %d", got.Rejected, want.Rejected)
	}
	for _, l := range pool {
		gl, gok := got.Label(l.I, l.J)
		wl, wok := want.Label(l.I, l.J)
		if gok != wok || gl != wl {
			t.Fatalf("label(%d,%d): distributed %v/%v, partitioned %v/%v", l.I, l.J, gl, gok, wl, wok)
		}
		if got.WasQueried(l.I, l.J) != want.WasQueried(l.I, l.J) {
			t.Fatalf("queried(%d,%d) diverges", l.I, l.J)
		}
	}
}

// TestDistributedMatchesPartitioned is the facade-level acceptance
// property: for the same Options (seed, K, budget), a K-shard
// distributed run — over the loopback transport and over genuine
// subprocess workers — produces the same globally one-to-one alignment
// as PartitionedAligner.
func TestDistributedMatchesPartitioned(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	candidates := append(append([]Anchor{}, testPos...), neg...)
	pool := append(append([]Anchor{}, trainPos...), candidates...)
	opts := Options{Budget: 10, Seed: 3, Partitions: 3, Workers: 2}
	oracle := NewTruthOracle(pair)

	ref, err := NewPartitioned(pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Align(trainPos, candidates, oracle)
	if err != nil {
		t.Fatal(err)
	}

	transports := map[string]ShardTransport{
		"loopback": NewLoopbackTransport(),
	}
	if exe, err := os.Executable(); err == nil && !testing.Short() {
		// The worker command is this test binary re-executed in worker
		// mode (see TestMain) — a genuine subprocess speaking the wire
		// protocol over stdio, like `activeiter -worker` does.
		transports["subprocess"] = &distrib.Exec{
			Cmd:    exe,
			Env:    append(os.Environ(), workerEnv+"=1"),
			Stderr: os.Stderr,
		}
	}
	for name, tr := range transports {
		t.Run(name, func(t *testing.T) {
			da, err := NewDistributed(pair, opts, tr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := da.Align(trainPos, candidates, oracle)
			if err != nil {
				t.Fatal(err)
			}
			assertSameAsPartitioned(t, got, want, pool)
			m := da.Metrics()
			if m == nil || m.JobBytes <= 0 {
				t.Errorf("metrics missing after Align: %+v", m)
			}
			// The shared evaluation path scores the distributed result
			// like any other.
			dm := EvaluateAlignment(got, testPos, neg)
			wm := EvaluateAlignment(want, testPos, neg)
			if dm != wm {
				t.Errorf("metrics diverge: distributed %+v, partitioned %+v", dm, wm)
			}
		})
	}
}

// TestNewDistributedValidation pins constructor error paths.
func TestNewDistributedValidation(t *testing.T) {
	pair, _, _, _ := testFixture(t)
	if _, err := NewDistributed(nil, Options{}, NewLoopbackTransport()); err == nil {
		t.Error("nil pair accepted")
	}
	if _, err := NewDistributed(pair, Options{}, nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewDistributed(pair, Options{Workers: -1}, NewLoopbackTransport()); err == nil {
		t.Error("negative Workers accepted")
	}
	if _, err := NewDistributed(pair, Options{Partitions: -2}, NewLoopbackTransport()); err == nil {
		t.Error("negative Partitions accepted")
	}
}

// TestDistributedRoundsSession: Options.Rounds > 1 drives the sticky
// session — the run completes, every shard past round 1 is re-run warm
// by the worker that prepared it, and all rounds' oracle answers are
// visible through WasQueried.
func TestDistributedRoundsSession(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	candidates := append(append([]Anchor{}, testPos...), neg...)
	opts := Options{Budget: 12, Seed: 3, Partitions: 3, Workers: 2, Rounds: 3}
	oracle := NewTruthOracle(pair)

	da, err := NewDistributed(pair, opts, NewLoopbackTransport())
	if err != nil {
		t.Fatal(err)
	}
	res, err := da.Align(trainPos, candidates, oracle)
	if err != nil {
		t.Fatal(err)
	}
	m := da.Metrics()
	if m == nil {
		t.Fatal("no metrics after session Align")
	}
	if m.CacheHits == 0 {
		t.Error("multi-round session produced no cache hits")
	}
	if m.DeltaBytes <= 0 || m.JobBytes <= 0 {
		t.Errorf("multi-round session: %d cold and %d warm job bytes, want both", m.JobBytes, m.DeltaBytes)
	}
	// 3 shards are prepared cold once; rounds 2 and 3 re-run all of them
	// warm.
	if wantHits := (opts.Rounds - 1) * opts.Partitions; m.CacheHits != wantHits || m.CacheMisses != 0 {
		t.Errorf("cache hits/misses = %d/%d, want %d/0", m.CacheHits, m.CacheMisses, wantHits)
	}
	if m.Queries > opts.Budget {
		t.Errorf("session spent %d queries over budget %d", m.Queries, opts.Budget)
	}
	// The result's Reports accumulate across rounds, so QueryCount keeps
	// the single-shot contract — total oracle spend — on retry-free runs.
	if m.Retries == 0 && res.QueryCount() != m.Queries {
		t.Errorf("result QueryCount %d != session oracle round-trips %d", res.QueryCount(), m.Queries)
	}
	// Every oracle answer across rounds is excluded from evaluation via
	// WasQueried on the final result. Distinct queried links can trail
	// the round-trip count — overlapping shards may both query a border
	// link within one round — but never exceed it.
	queried := 0
	for _, l := range append(append([]Anchor{}, trainPos...), candidates...) {
		if res.WasQueried(l.I, l.J) {
			queried++
		}
	}
	if queried == 0 || queried > m.Queries {
		t.Errorf("final result reports %d queried links, session answered %d round-trips", queried, m.Queries)
	}
	if len(res.PredictedAnchors()) == 0 {
		t.Error("session alignment predicted nothing")
	}
}

// TestDistributedRoundsZeroEqualsOne is the facade twin of distrib's
// TestSingleShotEqualsOneRoundSession: Options{Rounds: 0} (single-shot
// dispatch) and Options{Rounds: 1} (a one-round session) are the same
// run — same alignment, same per-shard models, same oracle spend, same
// transport audit shape.
func TestDistributedRoundsZeroEqualsOne(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	candidates := append(append([]Anchor{}, testPos...), neg...)
	pool := append(append([]Anchor{}, trainPos...), candidates...)
	oracle := NewTruthOracle(pair)

	run := func(rounds int) (*PartitionedResult, *DistributedMetrics) {
		t.Helper()
		da, err := NewDistributed(pair, Options{Budget: 10, Seed: 3, Partitions: 3, Workers: 2, Rounds: rounds}, NewLoopbackTransport())
		if err != nil {
			t.Fatal(err)
		}
		res, err := da.Align(trainPos, candidates, oracle)
		if err != nil {
			t.Fatalf("Rounds=%d: %v", rounds, err)
		}
		return res, da.Metrics()
	}
	zero, zm := run(0)
	one, om := run(1)
	assertSameAsPartitioned(t, one, zero, pool)
	if !reflect.DeepEqual(one.ShardWeights, zero.ShardWeights) {
		t.Errorf("shard weights diverge: Rounds=1 %v, Rounds=0 %v", one.ShardWeights, zero.ShardWeights)
	}
	if len(one.Reports) != len(zero.Reports) {
		t.Errorf("Rounds=1 carries %d part reports, Rounds=0 %d", len(one.Reports), len(zero.Reports))
	}
	if zm == nil || om == nil {
		t.Fatalf("metrics missing: Rounds=0 %+v, Rounds=1 %+v", zm, om)
	}
	if om.Queries != zm.Queries || om.Retries != zm.Retries || om.Fallbacks != zm.Fallbacks ||
		om.CacheHits != zm.CacheHits || len(om.Shards) != len(zm.Shards) {
		t.Errorf("transport audit diverges: Rounds=1 %+v, Rounds=0 %+v", om, zm)
	}
}

// TestOptionsRoundsValidation: negative Rounds is rejected up front.
func TestOptionsRoundsValidation(t *testing.T) {
	pair, _, _, _ := testFixture(t)
	if _, err := NewDistributed(pair, Options{Rounds: -1}, NewLoopbackTransport()); err == nil {
		t.Error("negative Rounds accepted")
	}
	if _, err := NewDistributed(pair, Options{HedgeAfter: -1}, NewLoopbackTransport()); err == nil {
		t.Error("negative HedgeAfter accepted")
	}
}

// unreachableTransport models a fully-down fabric at the facade level.
type unreachableTransport struct{}

func (unreachableTransport) Dial() (io.ReadWriteCloser, error) {
	return nil, fmt.Errorf("dial: network unreachable")
}

// TestDistributedFallbackKnobs: with the transport fully down, the
// default options degrade every shard to the in-process path and still
// produce the partitioned reference alignment — and NoFallback turns
// the same situation into a hard error.
func TestDistributedFallbackKnobs(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	candidates := append(append([]Anchor{}, testPos...), neg...)
	pool := append(append([]Anchor{}, trainPos...), candidates...)
	opts := Options{Budget: 10, Seed: 3, Partitions: 3, Workers: 2, ShardRetries: -1}
	oracle := NewTruthOracle(pair)

	ref, err := NewPartitioned(pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Align(trainPos, candidates, oracle)
	if err != nil {
		t.Fatal(err)
	}

	da, err := NewDistributed(pair, opts, unreachableTransport{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := da.Align(trainPos, candidates, oracle)
	if err != nil {
		t.Fatalf("dead transport should degrade, not fail: %v", err)
	}
	assertSameAsPartitioned(t, got, want, pool)
	m := da.Metrics()
	if m == nil || m.Fallbacks != opts.Partitions {
		t.Errorf("Fallbacks = %+v, want %d degraded shards", m, opts.Partitions)
	}

	opts.NoFallback = true
	da, err = NewDistributed(pair, opts, unreachableTransport{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := da.Align(trainPos, candidates, oracle); err == nil {
		t.Error("NoFallback over a dead transport should fail the run")
	}
	// The failed run's audit must be visible: non-nil, this run's (no
	// fallbacks — the previous aligner's had three), with the attempts of
	// the shard that exhausted its budget.
	m = da.Metrics()
	if m == nil {
		t.Fatal("Metrics() is nil after a failed Align")
	}
	if m.Fallbacks != 0 || m.Retries != 0 {
		t.Errorf("failed run under NoFallback and ShardRetries=-1 reports retries=%d fallbacks=%d", m.Retries, m.Fallbacks)
	}
	attempts := 0
	for _, sm := range m.Shards {
		attempts += sm.Attempts
	}
	if len(m.Shards) != opts.Partitions || attempts == 0 {
		t.Errorf("failed run's per-shard audit: %+v, want %d shards with the failed attempts counted", m.Shards, opts.Partitions)
	}

	// One retry allowed: the abort comes after two attempts on some shard,
	// and the retry is in the audit.
	opts.ShardRetries = 1
	da, err = NewDistributed(pair, opts, unreachableTransport{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := da.Align(trainPos, candidates, oracle); err == nil {
		t.Fatal("NoFallback over a dead transport should fail the run")
	}
	m = da.Metrics()
	if m == nil || m.Retries == 0 {
		t.Fatalf("failed run's retries are not visible: %+v", m)
	}
	exhausted := false
	for _, sm := range m.Shards {
		exhausted = exhausted || sm.Attempts == 2
	}
	if !exhausted {
		t.Errorf("no shard shows the exhausted attempt count: %+v", m.Shards)
	}
}
