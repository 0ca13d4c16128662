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
	"github.com/activeiter/activeiter/internal/retry"
)

// runRoundsOnPlan drives a session the way the facade does: split the
// budget across rounds, feed each round's oracle labels back into the
// stable plan, collect per-round metrics. A fresh plan is built per call
// (the driver mutates it between rounds).
func runRoundsOnPlan(t *testing.T, fx *distFixture, transport Transport, rounds, budget, workers int) (*partition.Result, []*Metrics, *Metrics) {
	t.Helper()
	plan := fx.freshPlan(t, budget)
	sess, err := NewSession(transport, fx.pair, Options{Train: fx.train, Workers: workers})
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

// TestSessionWarmMatchesCold is the session's core property: a
// multi-round run whose workers re-run every later round on the shard
// they prepared in round 1 must be bit-identical to the same rounds on
// workers that cache nothing and prepare every job cold — same predicted
// anchors, labels, scores, query sets, per-shard models. The caching
// side runs over loopback and over this test binary re-executed as
// worker processes, whose caches live in genuinely separate memory.
func TestSessionWarmMatchesCold(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	const rounds = 3
	cold, coldPer, coldCum := runRoundsOnPlan(t, fx, cacheLoopback{size: 0}, rounds, 12, 2)
	if coldCum.CacheHits != 0 || coldCum.DeltaBytes != 0 {
		t.Fatalf("cache-disabled workers re-ran %d jobs warm (%d bytes)", coldCum.CacheHits, coldCum.DeltaBytes)
	}
	// Every later-round job goes back to the worker that ran it, which
	// prepares it cold again: each is a miss.
	if want := (rounds - 1) * fx.k; coldCum.CacheMisses != want {
		t.Errorf("cache-disabled workers: %d misses, want %d", coldCum.CacheMisses, want)
	}

	warmers := []struct {
		name string
		tr   Transport
	}{{"loopback", Loopback{}}}
	if exe, err := os.Executable(); err == nil && !testing.Short() {
		warmers = append(warmers, struct {
			name string
			tr   Transport
		}{"subprocess", &Exec{Cmd: exe, Env: append(os.Environ(), workerEnv+"=1"), Stderr: os.Stderr}})
	}
	for _, w := range warmers {
		t.Run(w.name, func(t *testing.T) {
			warm, warmPer, warmCum := runRoundsOnPlan(t, fx, w.tr, rounds, 12, 2)
			assertSameAlignment(t, warm, cold, fx.plan)
			if !reflect.DeepEqual(warm.QueriedLabels(), cold.QueriedLabels()) {
				t.Errorf("queried labels diverge:\n warm %v\n cold %v", warm.QueriedLabels(), cold.QueriedLabels())
			}
			if !reflect.DeepEqual(warm.ShardWeights, cold.ShardWeights) {
				t.Errorf("shard weights diverge: warm %v, cold %v", warm.ShardWeights, cold.ShardWeights)
			}
			if want := (rounds - 1) * fx.k; warmCum.CacheHits != want || warmCum.CacheMisses != 0 {
				t.Errorf("caching workers: %d hits, %d misses; want %d, 0", warmCum.CacheHits, warmCum.CacheMisses, want)
			}
			// Round 1 prepares everything cold; later rounds ship the same
			// full jobs, which the workers re-run warm.
			if warmPer[0].JobBytes == 0 || warmPer[0].DeltaBytes != 0 {
				t.Errorf("round 1 should be all cold jobs: %+v", warmPer[0])
			}
			for r := 1; r < rounds; r++ {
				if warmPer[r].JobBytes != 0 || warmPer[r].DeltaBytes != coldPer[r].JobBytes {
					t.Errorf("round %d: %d cold and %d warm job bytes, want 0 cold and the cold side's %d",
						r+1, warmPer[r].JobBytes, warmPer[r].DeltaBytes, coldPer[r].JobBytes)
				}
			}
		})
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
// must not break the session — the next round redials, nothing is held
// warm any more, shards are prepared cold, and the result still matches
// the uninterrupted session's.
func TestSessionWorkerRestartFallsBack(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	want, _, _ := runRoundsOnPlan(t, fx, Loopback{}, 2, 12, 2)

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
	assertSameAlignment(t, res, want, fx.plan)
	if m2.Retries == 0 {
		t.Error("killed connections produced no retries")
	}
	if m2.CacheHits != 0 {
		t.Errorf("restarted workers served %d cache hits", m2.CacheHits)
	}
	if m2.JobBytes == 0 {
		t.Error("round 2 after restart prepared no job cold")
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
		_ = serveCache(there, c.size)
	}()
	return &loopbackConn{Conn: here, done: done}, nil
}

// TestSessionCacheEvictionFallsBack: a worker whose cache holds one
// shard while serving three must prepare every round-2 job cold (each
// shard evicted the one before), count each as a miss, and still match
// the reference.
func TestSessionCacheEvictionFallsBack(t *testing.T) {
	fx := newDistFixture(t, 3, 0)
	want, _, _ := runRoundsOnPlan(t, fx, Loopback{}, 2, 0, 1)
	res, per, cum := runRoundsOnPlan(t, fx, cacheLoopback{size: 1}, 2, 0, 1)
	assertSameAlignment(t, res, want, fx.plan)
	// The last shard of round 1 survives in the size-1 cache and round 2
	// visits shards in the same order, so by the time its job arrives it
	// has been evicted again: every job misses.
	if cum.CacheMisses != fx.k || cum.CacheHits != 0 {
		t.Errorf("thrashing cache: %d misses, %d hits; want %d, 0", cum.CacheMisses, cum.CacheHits, fx.k)
	}
	if per[1].JobBytes == 0 {
		t.Error("evicted shards were not prepared cold")
	}
}

// TestWorkerPreparesColdOnPoolDrift drives the wire directly: the shard
// cache is keyed by shard index, and a job whose key matches a cached
// shard but whose pool (or configuration) differs must be prepared cold —
// reusing the cached state would train the wrong pool — while an equal
// job, whatever its round's prelabels and budget, re-runs warm.
func TestWorkerPreparesColdOnPoolDrift(t *testing.T) {
	here := dialSeeded(t, fixturePair(t), TrainConfig{FeatureSet: FeaturesFull})
	run := func(job *Job) bool {
		t.Helper()
		if err := WriteFrame(here, FrameJob, job); err != nil {
			t.Fatal(err)
		}
		return drainToDone(t, here).Cached
	}
	job := fixtureJob(t)
	job.Budget = 0 // no oracle round-trips to answer by hand
	drifted := *job
	drifted.Candidates = job.Candidates[:2]
	reconfigured := *job
	reconfigured.FeatureSet = FeaturesPaths
	nextRound := *job
	nextRound.Prelabeled = append(nextRound.Prelabeled, WireLabel{I: 5, J: 4, Label: 0})
	nextRound.Seed++

	for _, step := range []struct {
		name string
		job  *Job
		warm bool
	}{
		{"first sight", job, false},
		{"same job", job, true},
		{"next round", &nextRound, true},
		{"drifted pool", &drifted, false},
		{"drifted pool again", &drifted, true},
		{"back to the first pool", job, false},
		{"other feature set", &reconfigured, false},
	} {
		if got := run(step.job); got != step.warm {
			t.Errorf("%s: Done.Cached = %v, want %v", step.name, got, step.warm)
		}
	}

	here.Close()
	if err := <-here.served; err != nil && err != io.EOF {
		t.Fatalf("worker serve loop: %v", err)
	}
}

// drainToDone consumes a shard response stream until its Done frame,
// failing the test on an Error frame.
func drainToDone(t *testing.T, conn io.ReadWriter) Done {
	t.Helper()
	for {
		typ, body, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case FrameDone:
			var d Done
			if err := DecodeBody(body, &d); err != nil {
				t.Fatal(err)
			}
			return d
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
// Retries/Fallbacks must agree (m = 2 over a budget of 2 attempts puts
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
				{"chaos", Options{Train: fx.train, Workers: 2, Retry: retry.Policy{Attempts: 5, Timeout: 2 * time.Second}},
					func(in Transport) Transport {
						return &ChaosTransport{Inner: in, Opts: ChaosOptions{
							Seed: 7, RefuseRate: 0.15, DropRate: 0.30, CorruptRate: 0.15, CrashRate: 0.10,
							MaxDelay: time.Millisecond,
						}}
					}, false},
				{"scripted", Options{Train: fx.train, Workers: 1, Retry: retry.Policy{Attempts: 2}},
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
