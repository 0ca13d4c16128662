package activeiter

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/activeiter/activeiter/internal/distrib"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// workerEnv re-executes this test binary as a wire worker so the
// subprocess-transport property test crosses a real process boundary
// without a prebuilt binary.
const workerEnv = "ACTIVEITER_FACADE_TEST_WORKER"

// workerMetricsEnv names a directory that such a worker writes its
// process's metrics into, as <pid>.prom, when its connection ends: what
// a test reads of the far side of the wire.
const workerMetricsEnv = "ACTIVEITER_FACADE_TEST_WORKER_METRICS"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		err := ServeWorker(struct {
			io.Reader
			io.Writer
		}{os.Stdin, os.Stdout})
		if dir := os.Getenv(workerMetricsEnv); dir != "" {
			var prom bytes.Buffer
			if werr := telemetry.Default.WriteProm(&prom); werr != nil {
				err = werr
			} else if werr := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%d.prom", os.Getpid())), prom.Bytes(), 0o644); werr != nil {
				err = werr
			}
		}
		if err != nil && err != io.EOF {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDistributedMatchesPartitioned is the facade-level acceptance
// property: for the same Options (seed, K, budget), a K-shard
// distributed run — over the loopback transport and over genuine
// subprocess workers — is the same run as PartitionedAligner's.
func TestDistributedMatchesPartitioned(t *testing.T) {
	_, _, testPos, neg := testFixture(t)
	opts := Options{Budget: 10, Seed: 3, Partitions: 3, Workers: 2}
	_, want := alignOn(t, opts, nil)
	transports := map[string]ShardTransport{"loopback": NewLoopbackTransport()}
	if exe, err := os.Executable(); err == nil && !testing.Short() {
		// The worker command is this test binary re-executed in worker
		// mode (see TestMain), like `activeiter -worker`.
		transports["subprocess"] = &distrib.Exec{Cmd: exe, Env: append(os.Environ(), workerEnv+"=1"), Stderr: os.Stderr}
	}
	for name, tr := range transports {
		t.Run(name, func(t *testing.T) {
			da, got := alignOn(t, opts, tr)
			sameSharded(t, name, got, want)
			if m := da.Metrics(); m == nil || m.JobBytes <= 0 {
				t.Errorf("metrics missing after Align: %+v", m)
			}
			if dm, wm := EvaluateAlignment(got, testPos, neg), EvaluateAlignment(want, testPos, neg); dm != wm {
				t.Errorf("metrics diverge: distributed %+v, partitioned %+v", dm, wm)
			}
		})
	}
}

// TestDistributedRoundsZeroEqualsOne is the facade twin of distrib's
// TestSingleShotEqualsOneRoundSession: Options{Rounds: 0} (single-shot
// dispatch) and Options{Rounds: 1} (a one-round session) are the same
// run with the same transport audit shape.
func TestDistributedRoundsZeroEqualsOne(t *testing.T) {
	opts := Options{Budget: 10, Seed: 3, Partitions: 3, Workers: 2}
	zeroAl, zero := alignOn(t, opts, NewLoopbackTransport())
	opts.Rounds = 1
	oneAl, one := alignOn(t, opts, NewLoopbackTransport())
	sameSharded(t, "Rounds=1", one, zero)
	zm, om := zeroAl.Metrics(), oneAl.Metrics()
	if zm == nil || om == nil {
		t.Fatalf("metrics missing: Rounds=0 %+v, Rounds=1 %+v", zm, om)
	}
	if om.Queries != zm.Queries || om.Retries != zm.Retries || om.Fallbacks != zm.Fallbacks ||
		om.CacheHits != zm.CacheHits || len(om.Shards) != len(zm.Shards) {
		t.Errorf("transport audit diverges: Rounds=1 %+v, Rounds=0 %+v", om, zm)
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

// TestOptionsRoundsValidation: negative Rounds is rejected up front.
func TestOptionsRoundsValidation(t *testing.T) {
	pair, _, _, _ := testFixture(t)
	if _, err := NewDistributed(pair, Options{Rounds: -1}, NewLoopbackTransport()); err == nil {
		t.Error("negative Rounds accepted")
	}
}

// unreachableTransport models a fully-down fabric at the facade level.
type unreachableTransport struct{}

func (unreachableTransport) Dial() (io.ReadWriteCloser, error) {
	return nil, fmt.Errorf("dial: network unreachable")
}

// TestDistributedFallsBackOverDeadTransport: with the transport fully
// down, the default options degrade every shard to the in-process path
// and still produce the partitioned reference alignment.
func TestDistributedFallsBackOverDeadTransport(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	candidates := append(append([]Anchor{}, testPos...), neg...)
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

	da, err := NewDistributed(pair, opts, unreachableTransport{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := da.Align(trainPos, candidates, oracle)
	if err != nil {
		t.Fatalf("dead transport should degrade, not fail: %v", err)
	}
	sameSharded(t, "fallback", got, want)
	m := da.Metrics()
	if m == nil || m.Fallbacks != opts.Partitions {
		t.Errorf("Fallbacks = %+v, want %d degraded shards", m, opts.Partitions)
	}
}
