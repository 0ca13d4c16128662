package distrib

import (
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/partition"
)

// runRoundsOnPlan drives a session the way the facade does: split the
// budget across rounds, feed each round's oracle labels back into the
// stable plan, collect per-round metrics. A fresh plan is built per call
// (the driver mutates it between rounds).
func runRoundsOnPlan(t *testing.T, fx *distFixture, transport Transport, deltaMax, rounds, budget, workers int) (*partition.Result, []*Metrics, *Metrics) {
	t.Helper()
	plan := fx.freshPlan(t, budget)
	sess, err := NewSession(transport, fx.pair, Options{
		Train: fx.train, Workers: workers, DeltaMaxLabels: deltaMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var res *partition.Result
	var per []*Metrics
	for r := 0; r < rounds; r++ {
		plan.Rebudget(partition.RoundBudget(budget, rounds, r))
		var m *Metrics
		res, m, err = sess.Run(plan, fx.oracle)
		if err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		per = append(per, m)
		if r < rounds-1 {
			plan.AppendLabels(res.QueriedLabels())
		}
	}
	return res, per, sess.Metrics()
}

// TestSessionDeltaMatchesFullReship is the session's core property: a
// multi-round run shipping JobRef label deltas to warm workers must be
// bit-identical to the same rounds re-shipping every shard as a full
// job — same predicted anchors, labels, scores, query sets — while
// shipping orders of magnitude fewer bytes from round 2 on.
func TestSessionDeltaMatchesFullReship(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	const rounds = 3
	full, fullPer, _ := runRoundsOnPlan(t, fx, Loopback{}, -1, rounds, 12, 2)
	delta, deltaPer, deltaCum := runRoundsOnPlan(t, fx, Loopback{}, 0, rounds, 12, 2)

	assertSameAlignment(t, delta, full, fx.plan)
	fl, dl := full.QueriedLabels(), delta.QueriedLabels()
	if len(fl) != len(dl) {
		t.Fatalf("queried labels: %d delta vs %d full", len(dl), len(fl))
	}
	for i := range fl {
		if fl[i] != dl[i] {
			t.Fatalf("queried label %d: %+v vs %+v", i, dl[i], fl[i])
		}
	}

	if deltaCum.CacheHits == 0 {
		t.Error("delta session produced no cache hits")
	}
	if deltaCum.CacheMisses != 0 {
		t.Errorf("healthy delta session missed %d times", deltaCum.CacheMisses)
	}
	// Round 1 ships full jobs in both modes; from round 2 the delta
	// session ships only JobRef frames.
	if deltaPer[0].JobBytes == 0 || deltaPer[0].DeltaBytes != 0 {
		t.Errorf("delta round 1 should ship full jobs: %+v", deltaPer[0])
	}
	for r := 1; r < rounds; r++ {
		if deltaPer[r].JobBytes != 0 {
			t.Errorf("delta round %d re-shipped %d full-job bytes", r+1, deltaPer[r].JobBytes)
		}
		if deltaPer[r].DeltaBytes == 0 {
			t.Errorf("delta round %d shipped no JobRef bytes", r+1)
		}
		if deltaPer[r].DeltaBytes*2 > fullPer[r].JobBytes {
			t.Errorf("round %d: delta %d bytes is not under half of full re-ship %d bytes",
				r+1, deltaPer[r].DeltaBytes, fullPer[r].JobBytes)
		}
	}
}

// TestSessionSubprocessDelta runs the delta-vs-full property across a
// real process boundary: the workers are this test binary re-executed in
// worker mode, and their caches live in genuinely separate memory.
func TestSessionSubprocessDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess transport in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot locate test binary:", err)
	}
	fx := newDistFixture(t, 3, 12)
	tr := &Exec{Cmd: exe, Env: append(os.Environ(), workerEnv+"=1"), Stderr: os.Stderr}
	full, _, _ := runRoundsOnPlan(t, fx, Loopback{}, -1, 2, 12, 2)
	delta, deltaPer, deltaCum := runRoundsOnPlan(t, fx, tr, 0, 2, 12, 2)
	assertSameAlignment(t, delta, full, fx.plan)
	if deltaCum.CacheHits == 0 {
		t.Error("subprocess delta session produced no cache hits")
	}
	if deltaPer[1].JobBytes != 0 {
		t.Errorf("subprocess round 2 re-shipped %d full-job bytes", deltaPer[1].JobBytes)
	}
}

// trackingTransport records every dialed connection so a test can kill
// them out from under the session — the worker-restart-between-rounds
// scenario.
type trackingTransport struct {
	inner Transport
	mu    sync.Mutex
	conns []io.ReadWriteCloser
}

func (tt *trackingTransport) Dial() (io.ReadWriteCloser, error) {
	c, err := tt.inner.Dial()
	if err != nil {
		return nil, err
	}
	tt.mu.Lock()
	tt.conns = append(tt.conns, c)
	tt.mu.Unlock()
	return c, nil
}

func (tt *trackingTransport) killAll() {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, c := range tt.conns {
		c.Close()
	}
	tt.conns = nil
}

// TestSessionWorkerRestartFallsBack: every worker dying between rounds
// must not break the session — the next round redials, the JobRef path
// is skipped (nothing is held warm), shards re-ship cold, and the result
// still matches the full-reship reference.
func TestSessionWorkerRestartFallsBack(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	full, _, _ := runRoundsOnPlan(t, fx, Loopback{}, -1, 2, 12, 2)

	tt := &trackingTransport{inner: Loopback{}}
	plan := fx.freshPlan(t, 12)
	sess, err := NewSession(tt, fx.pair, Options{Train: fx.train, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	plan.Rebudget(6)
	res, _, err := sess.Run(plan, fx.oracle)
	if err != nil {
		t.Fatal(err)
	}
	plan.AppendLabels(res.QueriedLabels())
	tt.killAll() // all workers "restart" between rounds
	plan.Rebudget(6)
	res, m2, err := sess.Run(plan, fx.oracle)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAlignment(t, res, full, fx.plan)
	if m2.Retries == 0 {
		t.Error("killed connections produced no retries")
	}
	if m2.CacheHits != 0 {
		t.Errorf("restarted workers served %d cache hits", m2.CacheHits)
	}
	if m2.JobBytes == 0 {
		t.Error("round 2 after restart shipped no full jobs")
	}
}

// cacheLoopback is Loopback with an explicit worker cache capacity.
type cacheLoopback struct{ size int }

func (c cacheLoopback) Dial() (io.ReadWriteCloser, error) {
	here, there := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer there.Close()
		_ = ServeCache(there, c.size)
	}()
	return &loopbackConn{Conn: here, done: done}, nil
}

// TestSessionCacheEvictionFallsBack: a worker whose cache holds one
// shard while serving two must answer round-2 JobRefs with misses (each
// shard evicted the other), and the session must re-ship full jobs and
// still match the reference.
func TestSessionCacheEvictionFallsBack(t *testing.T) {
	fx := newDistFixture(t, 3, 0)
	full, _, _ := runRoundsOnPlan(t, fx, Loopback{}, -1, 2, 0, 1)
	res, per, cum := runRoundsOnPlan(t, fx, cacheLoopback{size: 1}, 0, 2, 0, 1)
	assertSameAlignment(t, res, full, fx.plan)
	if cum.CacheMisses == 0 {
		t.Error("size-1 worker cache under 3 shards produced no misses")
	}
	if per[1].JobBytes == 0 {
		t.Error("evicted shards were not re-shipped as full jobs")
	}
	// The last shard of round 1 survives in the size-1 cache and round 2
	// visits shards in the same order, so by the time its JobRef arrives
	// it has been evicted again: every JobRef misses.
	if cum.CacheHits != 0 {
		t.Errorf("expected pure misses from the thrashing cache, got %d hits", cum.CacheHits)
	}
}

// TestSessionNoCacheWorkerFallsBack: workers running with caching
// disabled (ServeCache size 0) answer every JobRef with a miss; the
// session must degrade to full re-ship every round, correctly.
func TestSessionNoCacheWorkerFallsBack(t *testing.T) {
	fx := newDistFixture(t, 2, 6)
	full, _, _ := runRoundsOnPlan(t, fx, Loopback{}, -1, 2, 6, 2)
	res, _, cum := runRoundsOnPlan(t, fx, cacheLoopback{size: 0}, 0, 2, 6, 2)
	assertSameAlignment(t, res, full, fx.plan)
	if cum.CacheHits != 0 {
		t.Errorf("cache-disabled workers served %d hits", cum.CacheHits)
	}
	if cum.CacheMisses == 0 {
		t.Error("cache-disabled workers produced no misses")
	}
}

// TestSessionOversizedDeltaFallsBack: a delta larger than
// DeltaMaxLabels must re-ship the full job instead of a JobRef — and
// still produce the reference alignment.
func TestSessionOversizedDeltaFallsBack(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	full, _, _ := runRoundsOnPlan(t, fx, Loopback{}, -1, 2, 12, 2)
	res, per, cum := runRoundsOnPlan(t, fx, Loopback{}, 1, 2, 12, 2)
	assertSameAlignment(t, res, full, fx.plan)
	// Round 1 spends 6 queries across 3 shards; at least one shard
	// accumulates a delta over the 1-label cap and must go back cold.
	if per[1].JobBytes == 0 {
		t.Error("oversized deltas were not re-shipped as full jobs")
	}
	if cum.CacheMisses != 0 {
		t.Errorf("oversized-delta fallback is not a cache miss, counted %d", cum.CacheMisses)
	}
}

// TestWorkerFingerprintCollisionMisses drives the wire directly: a
// JobRef whose fingerprint resolves to a DIFFERENT shard's cached state
// (an engineered collision) must miss — reusing it would train the wrong
// shard — while the rightful shard still hits.
func TestWorkerFingerprintCollisionMisses(t *testing.T) {
	here := dialSeeded(t, fixturePair(t), TrainConfig{FeatureSet: FeaturesFull})

	job := fixtureJob(t)
	job.Budget = 0 // no oracle round-trips to answer by hand
	job.Fingerprint = 42
	if err := WriteFrame(here, FrameJob, job); err != nil {
		t.Fatal(err)
	}
	drainToDone(t, here)

	// Same fingerprint, wrong shard index: the collision defense.
	if err := WriteFrame(here, FrameJobRef, &JobRef{Shard: job.Shard + 1, Fingerprint: 42}); err != nil {
		t.Fatal(err)
	}
	var ack CacheAck
	if err := ReadExpect(here, FrameCacheAck, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Hit {
		t.Fatal("colliding fingerprint with mismatched shard index served a cache hit")
	}

	// The rightful owner still hits and re-runs warm.
	if err := WriteFrame(here, FrameJobRef, &JobRef{Shard: job.Shard, Fingerprint: 42}); err != nil {
		t.Fatal(err)
	}
	if err := ReadExpect(here, FrameCacheAck, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Hit {
		t.Fatal("rightful fingerprint owner missed")
	}
	drainToDone(t, here)

	here.Close()
	if err := <-here.served; err != nil && err != io.EOF {
		t.Fatalf("worker serve loop: %v", err)
	}
}

// drainToDone consumes a shard response stream until its Done frame,
// failing the test on an Error frame.
func drainToDone(t *testing.T, conn io.ReadWriter) {
	t.Helper()
	for {
		typ, body, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case FrameDone:
			return
		case FrameError:
			var je JobError
			_ = DecodeBody(body, &je)
			t.Fatalf("worker failed: %s", je.Msg)
		}
	}
}

// TestSingleShotEqualsOneRoundSession pins that a single-shot
// Coordinator.Run and a one-round Session over the same plan are one
// computation: identical alignment, per-shard weights and query spend,
// over loopback and subprocess workers, K ∈ {1, 3}, with and without an
// active budget, healthy and under the chaos keystone's fault plan. The
// scripted mode also pins the recovery audit: flakyTransport keys its
// faults by dial ordinal, so with one worker slot and K×m dead dials
// every shard loses exactly m attempts under any dispatch order, and
// Retries/Fallbacks must agree (m = 2 over a retry budget of 1 puts
// every shard through retry and then fallback).
func TestSingleShotEqualsOneRoundSession(t *testing.T) {
	inners := []struct {
		name  string
		inner Transport
	}{{"loopback", Loopback{}}}
	if exe, err := os.Executable(); err == nil && !testing.Short() {
		inners = append(inners, struct {
			name  string
			inner Transport
		}{"subprocess", &Exec{
			Cmd: exe, Env: append(os.Environ(), workerEnv+"=1"), Stderr: os.Stderr,
			ShutdownGrace: 500 * time.Millisecond,
		}})
	}
	for _, k := range []int{1, 3} {
		for _, budget := range []int{0, 12} {
			fx := newDistFixture(t, k, budget)
			faults := []struct {
				name  string
				opts  Options
				wrap  func(Transport) Transport
				audit bool // Retries/Fallbacks are schedule-independent
			}{
				{"healthy", Options{Train: fx.train, Workers: 2},
					func(in Transport) Transport { return in }, true},
				{"chaos", Options{Train: fx.train, Workers: 2, Retries: 4, ShardTimeout: 2 * time.Second},
					func(in Transport) Transport {
						return &ChaosTransport{Inner: in, Opts: ChaosOptions{
							Seed: 7, RefuseRate: 0.15, DropRate: 0.30, CorruptRate: 0.15, CrashRate: 0.10,
							MaxDelay: time.Millisecond,
						}}
					}, false},
				{"scripted", Options{Train: fx.train, Workers: 1, Retries: 1},
					func(in Transport) Transport { return &flakyTransport{inner: in, fails: 2 * k} }, true},
			}
			for _, in := range inners {
				for _, f := range faults {
					t.Run(fmt.Sprintf("%s/k%d/b%d/%s", in.name, k, budget, f.name), func(t *testing.T) {
						coord := &Coordinator{Transport: f.wrap(in.inner), Opts: f.opts}
						single, sm, err := coord.Run(fx.pair, fx.plan, fx.oracle)
						if err != nil {
							t.Fatalf("single-shot: %v", err)
						}
						sess, err := NewSession(f.wrap(in.inner), fx.pair, f.opts)
						if err != nil {
							t.Fatal(err)
						}
						defer sess.Close()
						round, rm, err := sess.Run(fx.plan, fx.oracle)
						if err != nil {
							t.Fatalf("one-round session: %v", err)
						}
						assertSameAlignment(t, round, single, fx.plan)
						assertSameAlignment(t, single, fx.ref, fx.plan)
						if !reflect.DeepEqual(round.ShardWeights, single.ShardWeights) {
							t.Errorf("shard weights diverge: session %v, single-shot %v", round.ShardWeights, single.ShardWeights)
						}
						if round.QueryCount() != single.QueryCount() {
							t.Errorf("QueryCount: session %d, single-shot %d", round.QueryCount(), single.QueryCount())
						}
						if f.audit && (rm.Retries != sm.Retries || rm.Fallbacks != sm.Fallbacks) {
							t.Errorf("recovery audit diverges: session retries=%d fallbacks=%d, single-shot retries=%d fallbacks=%d",
								rm.Retries, rm.Fallbacks, sm.Retries, sm.Fallbacks)
						}
						if f.name == "scripted" && (sm.Retries != k || sm.Fallbacks != k) {
							t.Errorf("scripted plan: retries=%d fallbacks=%d, want %d each", sm.Retries, sm.Fallbacks, k)
						}
					})
				}
			}
		}
	}
}
