package distrib

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/oracle"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/retry"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// ---------------------------------------------------------------------
// Keystone chaos property: under injected refusals, mid-frame drops,
// byte corruption, crashes and artificial stalls, the distributed
// result is bit-identical to the fault-free in-process reference and
// the run terminates instead of hanging.
// ---------------------------------------------------------------------

func TestChaosRunIsBitIdentical(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	seeds := []int64{1, 7, 42}
	var injected, recovered int64
	for _, seed := range seeds {
		chaos := &ChaosTransport{Inner: Loopback{}, Opts: ChaosOptions{
			Seed:       seed,
			RefuseRate: 0.15,
			// ≥30% of connections die mid-frame, per the acceptance
			// criterion; corruption and crashes ride on top.
			DropRate:    0.30,
			CorruptRate: 0.15,
			CrashRate:   0.10,
			MaxDelay:    time.Millisecond,
		}}
		const workers = 2
		coord := &Coordinator{Transport: chaos, Opts: Options{
			Train: fx.train, Workers: workers, Retry: retry.Policy{Attempts: 5, Timeout: 2 * time.Second},
		}}
		res, m, err := coord.Run(fx.pair, fx.plan, fx.oracle)
		if err != nil {
			t.Fatalf("seed %d: chaos run failed: %v", seed, err)
		}
		assertSameAlignment(t, res, fx.ref, fx.plan)
		s := chaos.Stats()
		injected += s.Refused + s.Dropped + s.Corrupted + s.Crashed
		recovered += int64(m.Retries + m.Fallbacks)
		// Every slot dialed; a seed whose Jobs all ran clean needs no more.
		if want := int64(min(workers, fx.k)); s.Dials < want {
			t.Errorf("seed %d: only %d dials for %d worker slots", seed, s.Dials, want)
		}
	}
	// Individual seeds may draw lucky fault plans; across three seeds the
	// transport must have actually injected something, and the
	// coordinator must have actually recovered from it.
	if injected == 0 {
		t.Fatal("chaos transport injected no faults across all seeds")
	}
	if recovered == 0 {
		t.Fatal("no retries or fallbacks recorded despite injected faults")
	}
}

// TestChaosDeterministicReplay: equal seeds inject equal faults and
// produce equal results. Workers is pinned to 1 so the dial sequence —
// which keys the refusals — is scheduler-independent.
func TestChaosDeterministicReplay(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	run := func() (ChaosStats, []hetnet.Anchor) {
		chaos := &ChaosTransport{Inner: Loopback{}, Opts: ChaosOptions{
			Seed: 99, RefuseRate: 0.2, DropRate: 0.3, CorruptRate: 0.15, CrashRate: 0.1,
		}}
		coord := &Coordinator{Transport: chaos, Opts: Options{
			Train: fx.train, Workers: 1, Retry: retry.Policy{Attempts: 5, Timeout: 2 * time.Second},
		}}
		res, _, err := coord.Run(fx.pair, fx.plan, fx.oracle)
		if err != nil {
			t.Fatalf("replay run failed: %v", err)
		}
		return chaos.Stats(), res.PredictedAnchors()
	}
	s1, a1 := run()
	s2, a2 := run()
	if s1 != s2 {
		t.Errorf("same seed, different injections: %+v vs %+v", s1, s2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("same seed, different anchor counts: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed, different anchor %d: %+v vs %+v", i, a1[i], a2[i])
		}
	}
}

// TestShardAttemptsNeverOverlap pins the invariant the session's
// connections rely on for having one writer each: a shard has at most one
// attempt in flight. Under drops, crashes and latency, with retries and
// the in-process fallback both exercised, every shard's attempt spans are
// pairwise disjoint in time — the next attempt starts only after the last
// one ended — one span per counted attempt, and the votes still equal the
// in-process reference.
func TestShardAttemptsNeverOverlap(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	var retries, fallbacks int
	for _, seed := range []int64{3, 8, 13, 21} {
		chaos := &ChaosTransport{Inner: Loopback{}, Opts: ChaosOptions{
			Seed: seed, DropRate: 0.45, CrashRate: 0.3, MaxDelay: time.Millisecond,
		}}
		tr := telemetry.NewTracer("coordinator")
		sess, err := NewSession(chaos, fx.pair, Options{
			Train: fx.train, Workers: 2, Retry: retry.Policy{Attempts: 2, Timeout: 2 * time.Second}, Tracer: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, m, err := sess.Run(fx.freshPlan(t, 12), fx.oracle)
		sess.Close()
		if err != nil {
			t.Fatalf("seed %d: chaos session failed: %v", seed, err)
		}
		assertSameAlignment(t, res, fx.ref, fx.plan)
		retries += m.Retries
		fallbacks += m.Fallbacks

		attempts := map[string][]telemetry.SpanData{}
		for _, sp := range tr.Spans() {
			if sp.Proc != "worker" && strings.HasPrefix(sp.Name, "shard ") {
				attempts[sp.Name] = append(attempts[sp.Name], sp)
			}
		}
		for _, sm := range m.Shards {
			name := fmt.Sprintf("shard %d", sm.Shard)
			spans := attempts[name]
			if len(spans) != sm.Attempts {
				t.Fatalf("seed %d: %s has %d attempt spans for %d attempts", seed, name, len(spans), sm.Attempts)
			}
			sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
			for a := 1; a < len(spans); a++ {
				if prev, next := spans[a-1], spans[a]; next.Start < prev.End {
					t.Fatalf("seed %d: %s attempt on %q starts %v before the attempt on %q ends",
						seed, name, next.Track, time.Duration(prev.End-next.Start), prev.Track)
				}
			}
		}
	}
	t.Logf("retries %d, fallbacks %d", retries, fallbacks)
	if retries == 0 || fallbacks == 0 {
		t.Fatalf("retries %d, fallbacks %d: both rungs must be exercised", retries, fallbacks)
	}
}

// ---------------------------------------------------------------------
// Deadlines: a worker that handshakes and then goes silent must convert
// into a retryable failure — on both deadline plumbing paths.
// ---------------------------------------------------------------------

// silentTransport dials fake workers that complete the handshake —
// claiming to hold the offered seed — read the job, and then never
// respond: the canonical hung worker. With
// stripDeadlines the conn hides its net.Pipe deadline support, forcing
// the coordinator onto the watchdog-timer path.
type silentTransport struct {
	stripDeadlines bool
}

func (tr silentTransport) Dial() (io.ReadWriteCloser, error) {
	here, there := net.Pipe()
	go func() {
		defer there.Close()
		var offer Hello
		if err := ReadExpect(there, FrameHello, &offer); err != nil {
			return
		}
		if err := WriteFrame(there, FrameHello, &Hello{Role: "worker", SeedFP: offer.SeedFP}); err != nil {
			return
		}
		if _, _, err := ReadFrame(there); err != nil { // swallow the job
			return
		}
		// Hang: keep the read side open so the coordinator blocks on its
		// response until the deadline (or watchdog) kills the conn.
		io.Copy(io.Discard, there)
	}()
	if tr.stripDeadlines {
		return noDeadlineConn{inner: here}, nil
	}
	return here, nil
}

// noDeadlineConn hides the inner conn's deadline methods, modeling a
// stdio-pipe transport.
type noDeadlineConn struct {
	inner io.ReadWriteCloser
}

func (c noDeadlineConn) Read(p []byte) (int, error)  { return c.inner.Read(p) }
func (c noDeadlineConn) Write(p []byte) (int, error) { return c.inner.Write(p) }
func (c noDeadlineConn) Close() error                { return c.inner.Close() }

func TestHungWorkerHitsDeadlineAndFallsBack(t *testing.T) {
	fx := newDistFixture(t, 2, 0)
	for _, tc := range []struct {
		name  string
		strip bool
	}{
		{"conn-deadlines", false},
		{"watchdog", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := &Coordinator{Transport: silentTransport{stripDeadlines: tc.strip}, Opts: Options{
				Train: fx.train, Workers: 2, Retry: retry.Policy{Attempts: 1, Timeout: 150 * time.Millisecond},
			}}
			start := time.Now()
			res, m, err := coord.Run(fx.pair, fx.plan, fx.oracle)
			if err != nil {
				t.Fatalf("run failed instead of degrading: %v", err)
			}
			assertSameAlignment(t, res, fx.ref, fx.plan)
			if m.Fallbacks != fx.k {
				t.Errorf("Fallbacks = %d, want %d (every shard hung)", m.Fallbacks, fx.k)
			}
			for _, sm := range m.Shards {
				if !sm.Fallback {
					t.Errorf("shard %d not marked Fallback: %+v", sm.Shard, sm)
				}
			}
			// The whole point: the run completed on the deadline's clock,
			// not the test timeout's.
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("run took %v; deadline did not fire promptly", elapsed)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Stragglers: a shard has one attempt in flight, so a slow worker is
// waited for while it is inside ShardTimeout, and cut off and retried
// once it is past it.
// ---------------------------------------------------------------------

// stragglerTransport dials loopback workers and makes one shard attempt
// a straggler: while armed, the next connection a Job is written to holds
// back its first read after the Job for delay, or until the coordinator
// closes it. Its conns hide their deadline methods, so a ShardTimeout
// cut-off comes from the watchdog closing the conn.
type stragglerTransport struct {
	inner  Transport
	delay  time.Duration
	armed  atomic.Bool
	stalls atomic.Int64
}

func (tr *stragglerTransport) Dial() (io.ReadWriteCloser, error) {
	conn, err := tr.inner.Dial()
	if err != nil {
		return nil, err
	}
	return &stragglerConn{ReadWriteCloser: conn, tr: tr, closed: make(chan struct{})}, nil
}

type stragglerConn struct {
	io.ReadWriteCloser
	tr        *stragglerTransport
	stall     atomic.Bool
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *stragglerConn) Read(p []byte) (int, error) {
	if c.stall.CompareAndSwap(true, false) {
		select {
		case <-time.After(c.tr.delay):
		case <-c.closed:
		}
	}
	return c.ReadWriteCloser.Read(p)
}

func (c *stragglerConn) Write(p []byte) (int, error) {
	// A frame opens with its own 8-byte header write: length, "AI",
	// version, type.
	if len(p) == 8 && p[4] == 'A' && p[5] == 'I' && FrameType(p[7]) == FrameJob && c.tr.armed.CompareAndSwap(true, false) {
		c.tr.stalls.Add(1)
		c.stall.Store(true)
	}
	return c.ReadWriteCloser.Write(p)
}

// Close closes the inner conn before it wakes a stalled Read, so the
// woken Read finds the conn closed rather than a frame that was waiting.
func (c *stragglerConn) Close() error {
	err := c.ReadWriteCloser.Close()
	c.closeOnce.Do(func() { close(c.closed) })
	return err
}

// runStraggledSession runs a two-round session over tr and arms its
// straggler before round 2, so the stalled attempt is a shard's re-run on
// the worker that holds it warm. It returns round 2's result and metrics
// and how long round 2 took.
func runStraggledSession(t *testing.T, fx *distFixture, tr *stragglerTransport, timeout time.Duration) (*partition.Result, *Metrics, time.Duration) {
	t.Helper()
	plan := fx.freshPlan(t, 8)
	sess, err := NewSession(tr, fx.pair, Options{Train: fx.train, Workers: 2, Retry: retry.Policy{Timeout: timeout}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	plan.Rebudget(partition.RoundBudget(8, 2, 0))
	res, _, err := sess.Run(plan, fx.oracle)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	plan.AppendLabels(res.QueriedLabels())
	tr.armed.Store(true)
	plan.Rebudget(partition.RoundBudget(8, 2, 1))
	start := time.Now()
	res, m, err := sess.Run(plan, fx.oracle)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	return res, m, elapsed
}

// TestStragglerIsWaitedFor: an attempt that stalls inside ShardTimeout is
// waited for. Nothing is retried or falls back, every shard runs exactly
// one attempt, the round lasts at least the stall, and the votes are the
// healthy run's. In a session the straggler keeps its warm shard: every
// round-2 job is still a cache hit.
func TestStragglerIsWaitedFor(t *testing.T) {
	const delay = 200 * time.Millisecond
	assertWaited := func(t *testing.T, tr *stragglerTransport, m *Metrics, elapsed time.Duration) {
		t.Helper()
		if n := tr.stalls.Load(); n != 1 {
			t.Fatalf("%d attempts stalled, want 1", n)
		}
		if m.Retries != 0 || m.Fallbacks != 0 {
			t.Errorf("straggler not waited for: %d retries, %d fallbacks", m.Retries, m.Fallbacks)
		}
		for _, sm := range m.Shards {
			if sm.Attempts != 1 || sm.Fallback {
				t.Errorf("shard %d: %d attempts, fallback %v; want 1 attempt on the transport", sm.Shard, sm.Attempts, sm.Fallback)
			}
		}
		if elapsed < delay {
			t.Errorf("round took %v, under the %v stall", elapsed, delay)
		}
	}

	t.Run("single-shot", func(t *testing.T) {
		fx := newDistFixture(t, 2, 0)
		tr := &stragglerTransport{inner: Loopback{}, delay: delay}
		tr.armed.Store(true)
		coord := &Coordinator{Transport: tr, Opts: Options{Train: fx.train, Workers: 2}}
		start := time.Now()
		res, m, err := coord.Run(fx.pair, fx.plan, fx.oracle)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAlignment(t, res, fx.ref, fx.plan)
		assertWaited(t, tr, m, time.Since(start))
	})

	t.Run("session-round-2", func(t *testing.T) {
		fx := newDistFixture(t, 2, 8)
		want, _, _ := runRoundsOnPlan(t, fx, Loopback{}, 2, 8, 2)
		tr := &stragglerTransport{inner: Loopback{}, delay: delay}
		res, m, elapsed := runStraggledSession(t, fx, tr, 0)
		assertSameAlignment(t, res, want, fx.plan)
		assertWaited(t, tr, m, elapsed)
		if m.CacheHits != fx.k {
			t.Errorf("round 2: %d cache hits, want %d", m.CacheHits, fx.k)
		}
	})
}

// TestStragglerPastDeadlineIsRetried: an attempt that stalls past
// ShardTimeout is cut off by the watchdog and the shard is retried on the
// transport. The retry answers — no fallback — the round ends on the
// deadline's clock rather than the stall's, and the votes are the healthy
// run's.
func TestStragglerPastDeadlineIsRetried(t *testing.T) {
	const (
		timeout = time.Second
		delay   = time.Minute
	)
	assertRetried := func(t *testing.T, tr *stragglerTransport, m *Metrics, elapsed time.Duration) {
		t.Helper()
		if n := tr.stalls.Load(); n != 1 {
			t.Fatalf("%d attempts stalled, want 1", n)
		}
		if m.Retries == 0 {
			t.Error("the cut-off attempt was not retried")
		}
		if m.Fallbacks != 0 {
			t.Errorf("%d shards fell back; the retry should have answered", m.Fallbacks)
		}
		retried := 0
		for _, sm := range m.Shards {
			if sm.Attempts > 1 {
				retried++
			}
		}
		if retried == 0 {
			t.Error("no shard records a second attempt")
		}
		if elapsed >= delay/2 {
			t.Errorf("round took %v; the deadline did not cut the straggler off", elapsed)
		}
	}

	t.Run("single-shot", func(t *testing.T) {
		fx := newDistFixture(t, 2, 0)
		tr := &stragglerTransport{inner: Loopback{}, delay: delay}
		tr.armed.Store(true)
		coord := &Coordinator{Transport: tr, Opts: Options{Train: fx.train, Workers: 2, Retry: retry.Policy{Timeout: timeout}}}
		start := time.Now()
		res, m, err := coord.Run(fx.pair, fx.plan, fx.oracle)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAlignment(t, res, fx.ref, fx.plan)
		assertRetried(t, tr, m, time.Since(start))
	})

	t.Run("session-round-2", func(t *testing.T) {
		fx := newDistFixture(t, 2, 8)
		want, _, _ := runRoundsOnPlan(t, fx, Loopback{}, 2, 8, 2)
		tr := &stragglerTransport{inner: Loopback{}, delay: delay}
		res, m, elapsed := runStraggledSession(t, fx, tr, timeout)
		assertSameAlignment(t, res, want, fx.plan)
		assertRetried(t, tr, m, elapsed)
	})
}

// TestDisarmReportsFiredWatchdog: a disarm after the watchdog fired
// says so (the conn is closed under the attempt); a disarm in time, or
// one over real deadlines, does not.
func TestDisarmReportsFiredWatchdog(t *testing.T) {
	here, there := net.Pipe()
	defer there.Close()
	if armDeadline(noDeadlineConn{inner: here}, time.Minute)() {
		t.Error("a disarm inside the deadline reported a firing")
	}
	disarm := armDeadline(here, time.Millisecond)
	if _, err := here.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past the conn deadline: %v", err)
	}
	if disarm() {
		t.Error("a passed conn deadline reported a firing; clearing it leaves the conn usable")
	}
	disarm = armDeadline(noDeadlineConn{inner: here}, time.Millisecond)
	there.Read(make([]byte, 1)) // returns once the watchdog has closed here
	if !disarm() {
		t.Error("a disarm after the watchdog closed the conn did not report the firing")
	}
}

// lateCloseTransport dials loopback workers whose conns hide their
// deadline methods and hold back the first read after a Job until the
// conn is closed. That first Close is counted and otherwise ignored: it
// comes too late to cut the stream, and the attempt goes on to commit —
// the race of a watchdog firing as the Done frame arrives.
type lateCloseTransport struct {
	lateCloses atomic.Int64
}

func (tr *lateCloseTransport) Dial() (io.ReadWriteCloser, error) {
	conn, err := Loopback{}.Dial()
	if err != nil {
		return nil, err
	}
	return &lateCloseConn{inner: conn, tr: tr, late: make(chan struct{})}, nil
}

type lateCloseConn struct {
	inner   io.ReadWriteCloser
	tr      *lateCloseTransport
	jobSent atomic.Bool
	stall   atomic.Bool   // the next read waits for the late Close
	late    chan struct{} // closed by the first Close after a Job
	once    sync.Once
}

func (c *lateCloseConn) Read(p []byte) (int, error) {
	if c.stall.CompareAndSwap(true, false) {
		<-c.late
	}
	return c.inner.Read(p)
}

func (c *lateCloseConn) Write(p []byte) (int, error) {
	if len(p) == 8 && FrameType(p[7]) == FrameJob {
		c.jobSent.Store(true)
		c.stall.Store(true)
	}
	return c.inner.Write(p)
}

func (c *lateCloseConn) Close() error {
	first := false
	if c.jobSent.Load() {
		c.once.Do(func() { first = true; close(c.late) })
	}
	if first {
		c.tr.lateCloses.Add(1)
		return nil
	}
	return c.inner.Close()
}

// TestWatchdogFiredAtCommitKeepsNoHome: an attempt that commits as its
// watchdog fires keeps its votes and costs no retry, but its slot drops
// the conn the watchdog closed, so the shard keeps no warm home there.
func TestWatchdogFiredAtCommitKeepsNoHome(t *testing.T) {
	fx := newDistFixture(t, 1, 0)
	tr := &lateCloseTransport{}
	sess, err := NewSession(tr, fx.pair, Options{Train: fx.train, Workers: 1, Retry: retry.Policy{Timeout: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, m, err := sess.Run(fx.plan, fx.oracle)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAlignment(t, res, fx.ref, fx.plan)
	if n := tr.lateCloses.Load(); n != 1 {
		t.Fatalf("%d late closes, want the watchdog's one", n)
	}
	if m.Retries != 0 || m.Fallbacks != 0 {
		t.Errorf("the committed attempt cost %d retries, %d fallbacks", m.Retries, m.Fallbacks)
	}
	if len(sess.homes) != 0 || sess.slots[0].conn != nil {
		t.Errorf("the slot kept the closed conn: homes %v, conn %v", sess.homes, sess.slots[0].conn)
	}
}

// ---------------------------------------------------------------------
// Graceful degradation: transport fully down.
// ---------------------------------------------------------------------

// downTransport refuses every dial — the transport-fully-unavailable
// scenario.
type downTransport struct{}

func (downTransport) Dial() (io.ReadWriteCloser, error) {
	return nil, errors.New("dial: network unreachable")
}

func TestFallbackWhenTransportDown(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	coord := &Coordinator{Transport: downTransport{}, Opts: Options{
		Train: fx.train, Workers: 2,
	}}
	res, m, err := coord.Run(fx.pair, fx.plan, fx.oracle)
	if err != nil {
		t.Fatalf("run failed instead of degrading: %v", err)
	}
	assertSameAlignment(t, res, fx.ref, fx.plan)
	if m.Fallbacks != fx.k {
		t.Errorf("Fallbacks = %d, want %d", m.Fallbacks, fx.k)
	}
	if m.Retries == 0 {
		t.Error("expected retries before degradation")
	}
	for _, sm := range m.Shards {
		if !sm.Fallback {
			t.Errorf("shard %d not marked Fallback: %+v", sm.Shard, sm)
		}
		// Default retry budget is 2: three transport attempts, then the
		// fallback dispatch.
		if sm.Attempts != 4 {
			t.Errorf("shard %d Attempts = %d, want 4", sm.Shard, sm.Attempts)
		}
	}
}

// ---------------------------------------------------------------------
// The policy's edges: one attempt means no retry, and a negative field
// is refused before anything runs.
// ---------------------------------------------------------------------

func TestSingleAttemptDisablesRetry(t *testing.T) {
	fx := newDistFixture(t, 2, 0)
	coord := &Coordinator{Transport: downTransport{}, Opts: Options{
		Train: fx.train, Workers: 1, Retry: retry.Policy{Attempts: 1},
	}}
	res, m, err := coord.Run(fx.pair, fx.plan, fx.oracle)
	if err != nil {
		t.Fatalf("run failed instead of degrading: %v", err)
	}
	assertSameAlignment(t, res, fx.ref, fx.plan)
	if m.Retries != 0 || m.Fallbacks != fx.k {
		t.Errorf("Retries = %d, Fallbacks = %d; want 0 and %d", m.Retries, m.Fallbacks, fx.k)
	}
	for _, sm := range m.Shards {
		if sm.Attempts != 2 || !sm.Fallback {
			t.Errorf("shard %d: %d attempts, fallback %v; want the one transport attempt and the fallback", sm.Shard, sm.Attempts, sm.Fallback)
		}
	}
}

// A zero Retry resolves to the one default policy; a negative field is
// refused.
func TestNewSessionRetryPolicy(t *testing.T) {
	fx := newDistFixture(t, 2, 0)
	s, err := NewSession(Loopback{}, fx.pair, Options{Train: fx.train})
	if err != nil {
		t.Fatal(err)
	}
	if want := (retry.Policy{Attempts: retry.DefaultAttempts, Timeout: defaultShardTimeout}); s.opts.Retry != want {
		t.Errorf("zero Retry resolved to %+v, want %+v", s.opts.Retry, want)
	}
	for _, p := range []retry.Policy{{Attempts: -1}, {Timeout: -time.Second}} {
		if _, err := NewSession(Loopback{}, fx.pair, Options{Train: fx.train, Retry: p}); err == nil {
			t.Errorf("NewSession accepted Retry %+v", p)
		}
	}
}

// ---------------------------------------------------------------------
// Health scoring: streaks bench a worker, cooldowns expire, success
// forgives; the TCP transport routes dials around benched addresses.
// ---------------------------------------------------------------------

func TestHealthBoardQuarantine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newHealthBoard(func() time.Time { return now })

	for i := 1; i < quarantineAfter; i++ {
		b.report("w1", false)
		if b.quarantined("w1") {
			t.Errorf("benched after %d failures (threshold %d)", i, quarantineAfter)
		}
	}
	b.report("w1", false)
	if !b.quarantined("w1") {
		t.Error("not benched after reaching the streak threshold")
	}
	if b.quarantined("w2") {
		t.Error("unknown worker reported quarantined")
	}

	now = now.Add(quarantineCooldown - time.Second)
	if !b.quarantined("w1") {
		t.Error("released before the cooldown expired")
	}
	now = now.Add(2 * time.Second)
	if b.quarantined("w1") {
		t.Error("still benched after the cooldown expired")
	}
	// The streak survives an expired bench: one more failure re-benches
	// immediately.
	b.report("w1", false)
	if !b.quarantined("w1") {
		t.Error("post-cooldown failure did not re-bench the streaky worker")
	}

	// One success forgives everything.
	b.report("w1", true)
	if b.quarantined("w1") {
		t.Error("benched after a success")
	}
	b.report("w1", false)
	if b.quarantined("w1") {
		t.Error("streak was not reset by the success")
	}
}

func TestTCPDialSkipsQuarantined(t *testing.T) {
	listen := func(t *testing.T) net.Listener {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	assertSkipped := func(t *testing.T, tr *TCP, bad, good string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			conn, err := tr.Dial()
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			id := conn.(interface{ WorkerID() string }).WorkerID()
			conn.Close()
			if id != good {
				t.Errorf("dial %d routed to quarantined worker %s", i, id)
			}
		}
	}

	t.Run("reported", func(t *testing.T) {
		bad, good := listen(t).Addr().String(), listen(t).Addr().String()
		tr := &TCP{Addrs: []string{bad, good}}
		for i := 0; i < quarantineAfter; i++ {
			tr.ReportWorker(bad, false)
		}
		assertSkipped(t, tr, bad, good)
	})

	// The board fed by a session instead of by hand: one address accepts
	// connections and hangs up (a crashed worker behind a live port), the
	// other is a real worker. quarantineAfter failed attempts on the bad
	// address inside the session must bench it, and the session still
	// converges on the healthy worker. The bad address is listed
	// quarantineAfter times ahead of the good one, so the round robin
	// sends the run's first dials there whichever slots make them: the
	// healthy worker is only reachable after all of them have failed,
	// which makes the failures certain — with one listing, a healthy slot
	// could take the requeued shard before the other slot ever redialled.
	t.Run("session-feeds-board", func(t *testing.T) {
		badLn, goodLn := listen(t), listen(t)
		go func() {
			for {
				conn, err := badLn.Accept()
				if err != nil {
					return
				}
				conn.Close()
			}
		}()
		go func() {
			for {
				conn, err := goodLn.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					_ = Serve(conn)
				}()
			}
		}()
		bad, good := badLn.Addr().String(), goodLn.Addr().String()

		fx := newDistFixture(t, 3, 12)
		want, _, _ := runRoundsOnPlan(t, fx, Loopback{}, 2, 12, 2)
		var addrs []string
		for i := 0; i < quarantineAfter; i++ {
			addrs = append(addrs, bad)
		}
		tr := &TCP{Addrs: append(addrs, good)}
		res, _, cum := runRoundsOnPlan(t, fx, tr, 2, 12, 2)
		assertSameAlignment(t, res, want, fx.plan)
		if cum.Retries < quarantineAfter {
			t.Errorf("Retries = %d, want the bad worker's %d failed attempts", cum.Retries, quarantineAfter)
		}
		if !tr.board().quarantined(bad) {
			t.Fatal("the session never benched the worker that failed quarantineAfter attempts")
		}
		assertSkipped(t, tr, bad, good)
	})
}

// ---------------------------------------------------------------------
// Exec kill-after-grace: a child that ignores stdin-close is reaped
// within the shutdown grace instead of hanging Close forever.
// ---------------------------------------------------------------------

func TestExecCloseReapsHungWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess transport in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot locate test binary:", err)
	}
	tr := &Exec{
		Cmd:           exe,
		Env:           append(os.Environ(), hangEnv+"=1"),
		ShutdownGrace: 100 * time.Millisecond,
	}
	conn, err := tr.Dial()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = conn.Close()
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "killed after") {
		t.Errorf("Close() = %v, want a kill-after-grace error", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("Close took %v with a 100ms grace; the reap did not bound shutdown", elapsed)
	}
	if st := conn.(*execConn).cmd.ProcessState; st == nil {
		t.Error("hung worker process was not reaped")
	}
}

// ---------------------------------------------------------------------
// Sessions under chaos: the sticky-connection path must recover from
// injected faults mid-round — redial, handshake the seed again, prepare cold
// what no live connection holds — and still match the fault-free
// reference.
// ---------------------------------------------------------------------

func TestSessionSurvivesChaos(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	full, _, _ := runRoundsOnPlan(t, fx, Loopback{}, 2, 12, 2)

	chaos := &ChaosTransport{Inner: Loopback{}, Opts: ChaosOptions{
		Seed: 5, RefuseRate: 0.1, DropRate: 0.25, CorruptRate: 0.1, CrashRate: 0.1,
	}}
	plan := fx.freshPlan(t, 12)
	sess, err := NewSession(chaos, fx.pair, Options{
		Train: fx.train, Workers: 2, Retry: retry.Policy{Attempts: 5, Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var res *partition.Result
	for r := 0; r < 2; r++ {
		plan.Rebudget(partition.RoundBudget(12, 2, r))
		got, _, err := sess.Run(plan, fx.oracle)
		if err != nil {
			t.Fatalf("round %d under chaos: %v", r+1, err)
		}
		res = got
		if r < 1 {
			plan.AppendLabels(got.QueriedLabels())
		}
	}
	assertSameAlignment(t, res, full, fx.plan)
	s := chaos.Stats()
	t.Logf("session chaos: %+v, cumulative %+v", s, sess.Metrics())
}

// TestChaosSessionWithNoisyPanel puts an unreliable labeler panel in
// the oracle seat of a 2-round session and demands the chaos run still
// reproduce the fault-free loopback run bit-for-bit under ≥30% frame
// loss. This is the contract that lets panels front distributed
// coordinators at all: verdicts are pure per-link functions, so shard
// retries and label-delta replays re-observe identical answers, and the
// two independent panels (one per driver) accumulate identical ledgers.
func TestChaosSessionWithNoisyPanel(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	cfg := oracle.Config{Honest: 2, Noisy: 2, FlipProb: 0.3, Adversarial: 1, Replicas: 3, Seed: 99}
	newPanel := func() *oracle.Panel {
		p, err := cfg.Build(fx.oracle)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	drive := func(transport Transport, panel *oracle.Panel) *partition.Result {
		t.Helper()
		plan := fx.freshPlan(t, 12)
		sess, err := NewSession(transport, fx.pair, Options{
			Train: fx.train, Workers: 2, Retry: retry.Policy{Attempts: 5, Timeout: 2 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		var res *partition.Result
		for r := 0; r < 2; r++ {
			plan.Rebudget(partition.RoundBudget(12, 2, r))
			got, _, err := sess.Run(plan, panel)
			if err != nil {
				t.Fatalf("round %d: %v", r+1, err)
			}
			res = got
			if r < 1 {
				plan.AppendLabels(got.QueriedLabels())
			}
		}
		return res
	}

	refPanel := newPanel()
	full := drive(Loopback{}, refPanel)

	chaos := &ChaosTransport{Inner: Loopback{}, Opts: ChaosOptions{
		Seed: 5, RefuseRate: 0.1, DropRate: 0.30, CorruptRate: 0.1, CrashRate: 0.1,
	}}
	chaosPanel := newPanel()
	res := drive(chaos, chaosPanel)

	assertSameAlignment(t, res, full, fx.plan)
	s := chaos.Stats()
	if s.Refused+s.Dropped+s.Corrupted+s.Crashed == 0 {
		t.Fatal("chaos transport injected no faults; the property was not exercised")
	}
	// Retries must not leak extra evidence into the panel: both ledgers
	// summarize the same query stream.
	fr, cr := refPanel.Report(), chaosPanel.Report()
	if cr.Queries != fr.Queries || cr.Contradictions != fr.Contradictions || len(cr.Distrusted) != len(fr.Distrusted) {
		t.Fatalf("panel ledgers diverge under chaos: %+v vs %+v", cr, fr)
	}
	t.Logf("noisy-panel session chaos: %+v, panel %d queries %d contradictions", s, cr.Queries, cr.Contradictions)
}
