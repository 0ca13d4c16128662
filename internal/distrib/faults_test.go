package distrib

import (
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/oracle"
	"github.com/activeiter/activeiter/internal/partition"
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
		coord := &Coordinator{Transport: chaos, Opts: Options{
			Train: fx.train, Workers: 2, Retries: 4, ShardTimeout: 2 * time.Second,
		}}
		res, m, err := coord.Run(fx.pair, fx.plan, fx.oracle)
		if err != nil {
			t.Fatalf("seed %d: chaos run failed: %v", seed, err)
		}
		assertSameAlignment(t, res, fx.ref, fx.plan)
		s := chaos.Stats()
		injected += s.Refused + s.Dropped + s.Corrupted + s.Crashed
		recovered += int64(m.Retries + m.Fallbacks)
		if s.Dials < int64(fx.k) {
			t.Errorf("seed %d: only %d dials for %d shards", seed, s.Dials, fx.k)
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
// which keys the per-connection fault plans — is scheduler-independent.
func TestChaosDeterministicReplay(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	run := func() (ChaosStats, []hetnet.Anchor) {
		chaos := &ChaosTransport{Inner: Loopback{}, Opts: ChaosOptions{
			Seed: 99, RefuseRate: 0.2, DropRate: 0.3, CorruptRate: 0.15, CrashRate: 0.1,
		}}
		coord := &Coordinator{Transport: chaos, Opts: Options{
			Train: fx.train, Workers: 1, Retries: 4, ShardTimeout: 2 * time.Second,
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
				Train: fx.train, Workers: 2, Retries: -1, ShardTimeout: 150 * time.Millisecond,
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
// fail-path coverage: exhausted retries under NoFallback, and the
// negative-Retries (disabled) semantics. Both must return non-nil
// Metrics carrying the final attempt counts.
// ---------------------------------------------------------------------

func TestNoFallbackAbortsWithMetrics(t *testing.T) {
	fx := newDistFixture(t, 2, 0)
	coord := &Coordinator{Transport: downTransport{}, Opts: Options{
		Train: fx.train, Workers: 1, Retries: 1, NoFallback: true,
	}}
	res, m, err := coord.Run(fx.pair, fx.plan, fx.oracle)
	if err == nil {
		t.Fatal("expected an error with the transport down and NoFallback set")
	}
	if res != nil {
		t.Error("aborted run returned a non-nil result")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("error %q does not carry the attempt count", err)
	}
	if m == nil {
		t.Fatal("aborted run returned nil metrics")
	}
	failed := 0
	for _, sm := range m.Shards {
		if sm.Attempts == 2 { // retries+1 on the shard that exhausted its budget
			failed++
		}
		if sm.Fallback {
			t.Errorf("shard %d marked Fallback under NoFallback", sm.Shard)
		}
	}
	if failed == 0 {
		t.Errorf("no shard shows the exhausted attempt count: %+v", m.Shards)
	}
}

func TestNegativeRetriesDisablesRetry(t *testing.T) {
	fx := newDistFixture(t, 2, 0)
	coord := &Coordinator{Transport: downTransport{}, Opts: Options{
		Train: fx.train, Workers: 1, Retries: -1, NoFallback: true,
	}}
	_, m, err := coord.Run(fx.pair, fx.plan, fx.oracle)
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "after 1 attempts") {
		t.Errorf("error %q should report a single attempt", err)
	}
	if m.Retries != 0 {
		t.Errorf("Retries = %d with retries disabled", m.Retries)
	}
}

// ---------------------------------------------------------------------
// Hedging: a straggling connection gets a duplicate dispatch; the first
// Done wins and the result is unchanged.
// ---------------------------------------------------------------------

// slowFirstTransport makes the FIRST dialed connection a straggler while
// armed: its worker takes a job and then goes quiet — from the start, or
// (armed between rounds) in a later round of a session.
type slowFirstTransport struct {
	inner Transport
	delay time.Duration
	armed atomic.Bool
	// sawCancel records a Cancel frame header written to the slow
	// connection — the loser's abandon notice.
	sawCancel atomic.Bool
	mu        sync.Mutex
	dials     int
}

func (tr *slowFirstTransport) Dial() (io.ReadWriteCloser, error) {
	conn, err := tr.inner.Dial()
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	first := tr.dials == 0
	tr.dials++
	tr.mu.Unlock()
	if first {
		return &slowConn{ReadWriteCloser: conn, tr: tr, closed: make(chan struct{})}, nil
	}
	return conn, nil
}

// slowConn holds back every read that follows a Job written while its
// transport is armed, for delay or until the coordinator
// abandons the connection — whichever comes first, so the round is over
// as soon as the winning twin gives up on the loser. Stalling only once a
// job is in flight keeps the handshake healthy: what
// straggles is a shard attempt, which the round tracks and can cancel. It
// deliberately hides deadline methods so the straggler is not rescued by
// a timeout first.
type slowConn struct {
	io.ReadWriteCloser
	tr        *slowFirstTransport
	stalled   atomic.Bool
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *slowConn) Read(p []byte) (int, error) {
	if c.stalled.Load() {
		select {
		case <-time.After(c.tr.delay):
		case <-c.closed:
		}
	}
	return c.ReadWriteCloser.Read(p)
}

func (c *slowConn) Write(p []byte) (int, error) {
	// A frame opens with its own 8-byte header write: length, "AI",
	// version, type.
	if len(p) == 8 && p[4] == 'A' && p[5] == 'I' {
		switch FrameType(p[7]) {
		case FrameCancel:
			// The abandon notice is advisory and the coordinator closes the
			// connection right after it, so the connection ends here: the
			// stalled side is this one's reads, and nobody would take the
			// notice off the synchronous pipe before the stall is over.
			c.tr.sawCancel.Store(true)
			c.Close()
			return 0, io.ErrClosedPipe
		case FrameJob:
			c.stalled.Store(c.tr.armed.Load())
		}
	}
	return c.ReadWriteCloser.Write(p)
}

func (c *slowConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.ReadWriteCloser.Close()
}

// A healthy shard of the tiny fixture trains in milliseconds — tens of
// them under the race detector on a busy two-core box, which is what
// made a 20 ms threshold hedge healthy rounds. hedgeAfter leaves that two
// orders of magnitude; stragglerDelay is long enough that the twin,
// dispatched at hedgeAfter plus at most a quarter of it, always finishes
// first — and is never waited out, because the winner closes the loser.
const (
	hedgeAfter     = time.Second
	stragglerDelay = 10 * time.Second
)

func TestHedgingRacesStragglers(t *testing.T) {
	assertHedged := func(t *testing.T, m *Metrics) {
		t.Helper()
		if m.Hedges == 0 {
			t.Fatal("no hedge dispatched for the straggling connection")
		}
		hedged := 0
		for _, sm := range m.Shards {
			if sm.Hedged {
				hedged++
			}
		}
		if hedged == 0 {
			t.Error("Hedges counted but no shard marked Hedged")
		}
	}

	t.Run("single-shot", func(t *testing.T) {
		fx := newDistFixture(t, 2, 0)
		tr := &slowFirstTransport{inner: Loopback{}, delay: stragglerDelay}
		tr.armed.Store(true)
		coord := &Coordinator{Transport: tr, Opts: Options{
			Train: fx.train, Workers: 2, HedgeAfter: hedgeAfter,
		}}
		res, m, err := coord.Run(fx.pair, fx.plan, fx.oracle)
		if err != nil {
			t.Fatalf("hedged run failed: %v", err)
		}
		assertSameAlignment(t, res, fx.ref, fx.plan)
		assertHedged(t, m)
	})

	// The same straggler, but in round 2 of a session: the slow
	// connection holds a shard warm from a healthy round 1, stalls on its
	// warm re-run, and is raced by a cold twin on the other slot. First
	// Done wins, the loser is cancelled, and the votes equal the unhedged
	// session's.
	t.Run("session-round-2", func(t *testing.T) {
		fx := newDistFixture(t, 2, 8)
		unhedged, _, _ := runRoundsOnPlan(t, fx, Loopback{}, 2, 8, 2)

		tr := &slowFirstTransport{inner: Loopback{}, delay: stragglerDelay}
		plan := fx.freshPlan(t, 8)
		sess, err := NewSession(tr, fx.pair, Options{
			Train: fx.train, Workers: 2, HedgeAfter: hedgeAfter,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		plan.Rebudget(partition.RoundBudget(8, 2, 0))
		res, m1, err := sess.Run(plan, fx.oracle)
		if err != nil {
			t.Fatalf("round 1: %v", err)
		}
		if m1.Hedges != 0 {
			t.Fatalf("healthy round 1 hedged %d times", m1.Hedges)
		}
		plan.AppendLabels(res.QueriedLabels())
		tr.armed.Store(true)
		plan.Rebudget(partition.RoundBudget(8, 2, 1))
		res, m2, err := sess.Run(plan, fx.oracle)
		if err != nil {
			t.Fatalf("hedged round 2: %v", err)
		}
		assertSameAlignment(t, res, unhedged, fx.plan)
		assertHedged(t, m2)
		// The Cancel is written off the dispatch path; give it a moment.
		for deadline := time.Now().Add(5 * time.Second); !tr.sawCancel.Load(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the losing attempt's connection never got a Cancel frame")
			}
		}
	})
}

// ---------------------------------------------------------------------
// One writer per connection: the winner's Cancel never lands inside a
// frame the losing attempt is still writing.
// ---------------------------------------------------------------------

// midFrameTransport parks the FIRST dialed connection's attempt inside a
// frame: the first oracle Answer's header goes out, and the write holds
// there — the worker has half a frame — until the coordinator closes the
// connection. Any other write arriving meanwhile is a second writer on
// the framed stream.
type midFrameTransport struct {
	inner Transport
	mu    sync.Mutex
	first *midFrameConn
}

func (tr *midFrameTransport) Dial() (io.ReadWriteCloser, error) {
	conn, err := tr.inner.Dial()
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.first == nil {
		tr.first = &midFrameConn{ReadWriteCloser: conn, closed: make(chan struct{})}
		return tr.first, nil
	}
	return conn, nil
}

type midFrameConn struct {
	io.ReadWriteCloser
	parked    atomic.Bool // the attempt's goroutine is inside its Answer frame
	intruded  atomic.Bool // a write arrived while it was
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *midFrameConn) Write(p []byte) (int, error) {
	if c.parked.Load() {
		c.intruded.Store(true)
		c.Close()
		return 0, io.ErrClosedPipe
	}
	if len(p) == 8 && p[4] == 'A' && p[5] == 'I' && FrameType(p[7]) == FrameAnswer {
		n, err := c.ReadWriteCloser.Write(p)
		c.parked.Store(true)
		<-c.closed
		if err == nil {
			err = io.ErrClosedPipe
		}
		return n, err
	}
	return c.ReadWriteCloser.Write(p)
}

func (c *midFrameConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.ReadWriteCloser.Close()
}

// TestCancelNeverInterleavesWithAnAnswer pins the session connection's
// single-writer rule. The straggler is an attempt stuck between the
// header and the body of an Answer; its hedge twin wins, and the
// winner's goroutine cancels the loser. Writing the Cancel from there
// put its header into the middle of the Answer — a corrupt stream, and
// over net.Pipe two writers blocked until ShardTimeout. The canceller
// now waits its turn for the connection and, when the turn does not come,
// closes it.
func TestCancelNeverInterleavesWithAnAnswer(t *testing.T) {
	fx := newDistFixture(t, 2, 8)
	for _, part := range fx.plan.Parts {
		if part.Budget == 0 {
			t.Fatal("fixture shard carries no budget; its worker would never query")
		}
	}
	tr := &midFrameTransport{inner: Loopback{}}
	coord := &Coordinator{Transport: tr, Opts: Options{
		Train: fx.train, Workers: 2, HedgeAfter: 100 * time.Millisecond,
	}}
	start := time.Now()
	res, m, err := coord.Run(fx.pair, fx.plan, fx.oracle)
	if err != nil {
		t.Fatalf("hedged run failed: %v", err)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("run took %v: the parked attempt was waited out", took)
	}
	assertSameAlignment(t, res, fx.ref, fx.plan)
	if m.Hedges == 0 {
		t.Fatal("the parked attempt was never hedged")
	}
	// The cancel runs off the dispatch path: wait for it to end the
	// parked connection, then ask what it wrote on the way.
	select {
	case <-tr.first.closed:
	case <-time.After(10 * cancelGrace):
		t.Fatal("the losing attempt's connection was never closed")
	}
	if tr.first.intruded.Load() {
		t.Fatal("a second writer put a frame inside the losing attempt's half-written Answer")
	}
}

// ---------------------------------------------------------------------
// Worker-side Cancel: a cancel landing while the worker waits on an
// oracle answer abandons the job silently — no Error frame — and the
// connection keeps serving.
// ---------------------------------------------------------------------

func TestWorkerCancelMidQueryKeepsServing(t *testing.T) {
	fx := newDistFixture(t, 2, 6)
	here := dialSeeded(t, fx.pair, fx.train)
	part := &fx.plan.Parts[0]
	if part.Budget == 0 {
		t.Fatal("fixture shard carries no budget; the worker would never query")
	}
	job := NewJob(fx.pair, part, fx.train)
	if err := WriteFrame(here, FrameJob, job); err != nil {
		t.Fatal(err)
	}
	// Consume frames until the worker blocks on its first oracle query,
	// then cancel the job out from under it.
	for {
		typ, _, err := ReadFrame(here)
		if err != nil {
			t.Fatalf("waiting for query: %v", err)
		}
		if typ == FrameError {
			t.Fatal("worker errored before querying")
		}
		if typ == FrameQuery {
			break
		}
	}
	if err := WriteFrame(here, FrameCancel, &Cancel{Shard: job.Shard}); err != nil {
		t.Fatal(err)
	}

	// The connection must survive the abandon: a second, budget-free job
	// on the same conn runs to Done with no Error frame in between.
	job2 := *job
	job2.Budget = 0
	if err := WriteFrame(here, FrameJob, &job2); err != nil {
		t.Fatal(err)
	}
	for {
		typ, _, err := ReadFrame(here)
		if err != nil {
			t.Fatalf("after cancel: %v", err)
		}
		switch typ {
		case FrameError:
			t.Fatal("worker sent an Error frame for a cancelled job")
		case FrameQuery:
			t.Fatal("budget-free job queried the oracle")
		case FrameDone:
			here.Close()
			if err := <-here.served; err != nil && err != io.EOF && !strings.Contains(err.Error(), "closed pipe") {
				t.Errorf("serve loop ended badly: %v", err)
			}
			return
		}
	}
}

// ---------------------------------------------------------------------
// Health scoring: streaks bench a worker, cooldowns expire, success
// forgives; the TCP transport routes dials around benched addresses.
// ---------------------------------------------------------------------

func TestHealthBoardQuarantine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newHealthBoard(2, time.Minute, func() time.Time { return now })

	b.report("w1", false)
	if b.quarantined("w1") {
		t.Error("benched after a single failure (threshold 2)")
	}
	b.report("w1", false)
	if !b.quarantined("w1") {
		t.Error("not benched after reaching the streak threshold")
	}
	if b.quarantined("w2") {
		t.Error("unknown worker reported quarantined")
	}

	now = now.Add(61 * time.Second)
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
		tr := &TCP{Addrs: []string{bad, good}, QuarantineAfter: 1}
		tr.ReportWorker(bad, false)
		assertSkipped(t, tr, bad, good)
	})

	// The board fed by a session instead of by hand: one address accepts
	// connections and hangs up (a crashed worker behind a live port), the
	// other is a real worker. Two failed attempts on the bad address
	// inside the session must bench it, and the session still converges
	// on the healthy worker. The bad address is listed twice ahead of the
	// good one, so the round robin sends the run's first two dials there
	// whichever slots make them: the healthy worker is only reachable
	// after both have failed, which makes the two failures certain —
	// with one listing, a healthy slot could take the requeued shard
	// before the other slot ever redialled.
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
		tr := &TCP{Addrs: []string{bad, bad, good}, QuarantineAfter: 2}
		res, _, cum := runRoundsOnPlan(t, fx, tr, 2, 12, 2)
		assertSameAlignment(t, res, want, fx.plan)
		if cum.Retries < 2 {
			t.Errorf("Retries = %d, want the bad worker's two failed attempts", cum.Retries)
		}
		if !tr.board().quarantined(bad) {
			t.Fatal("the session never benched the worker that failed QuarantineAfter attempts")
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
		Train: fx.train, Workers: 2, Retries: 4, ShardTimeout: 2 * time.Second,
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
			Train: fx.train, Workers: 2, Retries: 4, ShardTimeout: 2 * time.Second,
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
