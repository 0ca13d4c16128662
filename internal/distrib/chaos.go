package distrib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activeiter/activeiter/internal/retry"
)

// ErrInjected is the sentinel wrapped by every fault the ChaosTransport
// injects, so tests (and the coordinator's error accounting) can tell a
// manufactured failure from a real one with errors.Is.
var ErrInjected = errors.New("distrib: injected fault")

// errDropped is the injected mid-frame drop.
var errDropped = fmt.Errorf("%w: connection dropped mid-frame", ErrInjected)

// ChaosOptions configures deterministic fault injection. All randomness
// derives from Seed — two ChaosTransports with equal options inject the
// same faults at the same operations of the same shard Jobs, which is
// what lets the chaos property tests replay a failure exactly. No wall
// clock is consulted for fault decisions; the only time-dependent
// behavior is the artificial latency itself.
type ChaosOptions struct {
	// Seed drives every fault decision. A dial's refusal is drawn from
	// Seed and the dial ordinal; a Job's fault plan from Seed, the Job's
	// part index and how many Jobs that part has had on this transport —
	// so which shard a scheduler hands a connection does not change
	// whether a fault fires.
	Seed int64
	// RefuseRate is the probability that a Dial fails outright with a
	// connection-refused error, before the inner transport is touched.
	RefuseRate float64
	// DropRate is the probability that a Job's connection is doomed to
	// die mid-frame: after a random number of I/O operations the next
	// write ships only a partial frame and errors, or the next read
	// errors, exactly as a yanked cable would.
	DropRate float64
	// CorruptRate is the probability that a Job's connection flips one
	// payload byte at a random operation (or the first payload-carrying
	// one after it) and then keeps going. The CRC-32C frame trailer must
	// convert this into a detected ErrChecksum.
	CorruptRate float64
	// CrashRate is the probability that the connection's far side "dies"
	// mid-shard: the underlying conn is hard-closed from under the
	// stream after a random number of operations.
	CrashRate float64
	// MaxDelay, when positive, adds a per-Job artificial latency of up to
	// MaxDelay (chosen once per Job, applied before every I/O operation
	// from it on) — the straggler generator for deadline tests.
	MaxDelay time.Duration
}

// chaosMaxOps bounds the operation ordinal, counted from a Job, at which
// a doomed connection's fault fires. One frame costs ~3 operations per
// side, so the window covers the job send and the early response stream
// — the interesting places to die — and a small-budget Job, a few dozen
// operations long, usually lives to see its fault.
const chaosMaxOps = 32

// ChaosStats counts what the transport actually injected, for tests and
// smoke-run grepping. Read with Stats(); fields are totals since
// construction.
type ChaosStats struct {
	Dials     int64 // Dial calls, refused or not
	Refused   int64 // dials failed with connection refused
	Dropped   int64 // connections that died mid-frame
	Corrupted int64 // connections that flipped a payload byte
	Crashed   int64 // connections hard-closed mid-shard
}

// ChaosTransport wraps another Transport with seeded fault injection:
// refused dials, mid-frame drops, byte corruption, artificial latency,
// and hard crashes mid-shard. It exists so the fault-tolerance layer is
// tested against an adversary rather than assumed — the chaos property
// tests demand bit-identical results and no hangs under every fault
// class at once.
//
// Each Job a connection carries draws one fault plan: at most one
// scripted fault, firing at a random operation ordinal counted from the
// Job. Per-Job (not per-operation) fault probabilities keep the math
// honest: "30% drop rate" means 30% of shard attempts die, not a
// compounding per-read coin that no multi-frame shard could ever
// survive. The handshake before a connection's first Job is fault-free;
// RefuseRate covers the dial.
type ChaosTransport struct {
	Inner Transport
	Opts  ChaosOptions

	dials  atomic.Int64
	jobsMu sync.Mutex
	jobs   map[int64]uint64 // Jobs carried so far, by part index
	stats  struct {
		refused, dropped, corrupted, crashed atomic.Int64
	}
}

// Stats returns the injection totals so far.
func (t *ChaosTransport) Stats() ChaosStats {
	return ChaosStats{
		Dials:     t.dials.Load(),
		Refused:   t.stats.refused.Load(),
		Dropped:   t.stats.dropped.Load(),
		Corrupted: t.stats.corrupted.Load(),
		Crashed:   t.stats.crashed.Load(),
	}
}

// ReportWorker forwards health verdicts to the inner transport, so
// quarantine keeps working under chaos wrapping.
func (t *ChaosTransport) ReportWorker(id string, ok bool) {
	if hr, can := t.Inner.(interface{ ReportWorker(string, bool) }); can {
		hr.ReportWorker(id, ok)
	}
}

// rng is the fault RNG for one draw: keyed by the seed and a key that
// the mixer spreads over uncorrelated streams. Job keys are
// part<<32|n; dial keys set the top bit, which no part index reaches.
func (t *ChaosTransport) rng(key uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(retry.SplitMix64(uint64(t.Opts.Seed) + retry.SplitMix64(key)))))
}

// Dial implements Transport.
func (t *ChaosTransport) Dial() (io.ReadWriteCloser, error) {
	ord := t.dials.Add(1) - 1
	if t.rng(1<<63|uint64(ord)).Float64() < t.Opts.RefuseRate {
		t.stats.refused.Add(1)
		return nil, fmt.Errorf("%w: connection refused (dial %d)", ErrInjected, ord)
	}
	inner, err := t.Inner.Dial()
	if err != nil {
		return nil, err
	}
	fc := &faultConn{inner: inner, t: t}
	// Only advertise deadline support when the inner conn really has it
	// — the coordinator falls back to a watchdog timer otherwise, and a
	// deadline method that silently no-ops would disarm that fallback.
	if dl, can := inner.(deadlineConn); can {
		fc.deadline = dl
	}
	return fc, nil
}

// fault kinds a connection can be doomed with.
const (
	faultNone = iota
	faultDrop
	faultCorrupt
	faultCrash
)

// faultPlan is one Job's scripted fate on its connection. The zero plan
// injects nothing.
type faultPlan struct {
	kind      int
	failAfter int64         // operation ordinal the fault fires at (1-based)
	corruptAt int           // byte offset hint for faultCorrupt
	delay     time.Duration // per-operation artificial latency
}

// jobPlan draws the plan of the next Job for the part: the n-th such Job
// on this transport, whichever connection carries it.
func (t *ChaosTransport) jobPlan(part int64) faultPlan {
	t.jobsMu.Lock()
	if t.jobs == nil {
		t.jobs = make(map[int64]uint64)
	}
	n := t.jobs[part]
	t.jobs[part]++
	t.jobsMu.Unlock()
	rng := t.rng(uint64(part)<<32 | n)
	p := faultPlan{kind: faultNone, failAfter: int64(1 + rng.Intn(chaosMaxOps)), corruptAt: rng.Intn(1 << 16)}
	// One draw picks the fault class from disjoint probability bands, so
	// the configured rates are exact per-Job probabilities.
	r := rng.Float64()
	switch {
	case r < t.Opts.DropRate:
		p.kind = faultDrop
	case r < t.Opts.DropRate+t.Opts.CorruptRate:
		p.kind = faultCorrupt
	case r < t.Opts.DropRate+t.Opts.CorruptRate+t.Opts.CrashRate:
		p.kind = faultCrash
	}
	if t.Opts.MaxDelay > 0 {
		p.delay = time.Duration(rng.Int63n(int64(t.Opts.MaxDelay) + 1))
	}
	return p
}

// deadlineConn is the deadline surface the coordinator probes for;
// net.Conn implementations (TCP, net.Pipe) have it, stdio pipes do not.
type deadlineConn interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// errNoDeadline reports a conn whose transport cannot enforce
// deadlines; callers arm a watchdog timer instead.
var errNoDeadline = errors.New("distrib: transport does not support deadlines")

// faultConn wraps a worker connection with its current Job's scripted
// fault. I/O operations (reads and writes jointly) are counted from the
// Job under a mutex; when the count reaches the plan's ordinal the fault
// fires exactly once.
type faultConn struct {
	inner    io.ReadWriteCloser
	t        *ChaosTransport
	deadline deadlineConn // nil when the inner conn has no deadline support

	mu         sync.Mutex
	plan       faultPlan // the current Job's; zero before the first
	ops        int64     // operations since the current Job's body
	jobNext    bool      // the last write was a Job frame's header
	corrupting bool      // the corruption fired and waits for a payload

	closeOnce sync.Once
	closeErr  error
}

// watchJobs draws a new plan when p is the body of a Job frame. A frame
// goes out as three writes — the 8-byte header, the body, the checksum
// — and a Job's body opens with its part index.
func (c *faultConn) watchJobs(p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jobNext {
		c.jobNext = false
		if part, n := binary.Varint(p); n > 0 {
			c.plan, c.ops, c.corrupting = c.t.jobPlan(part), 0, false
		}
		return
	}
	c.jobNext = len(p) == 8 && [2]byte(p[4:6]) == codec.Magic && p[6] == codec.Version && FrameType(p[7]) == FrameJob
}

// tick advances the operation counter for an operation on size bytes,
// applies latency, and fires the scripted fault when its ordinal
// arrives. It reports the byte offset hint this operation should
// corrupt at (-1: none), or the injected error. A corruption waits for
// the first operation on more than a frame header's 8 bytes: it must hit
// a payload byte, under the CRC, never a length prefix — a grown length
// leaves the reader waiting for bytes that never come.
func (c *faultConn) tick(size int) (corruptAt int, err error) {
	c.mu.Lock()
	c.ops++
	op, plan := c.ops, c.plan
	c.corrupting = c.corrupting || (op == plan.failAfter && plan.kind == faultCorrupt)
	corrupt := c.corrupting && size > 8
	if corrupt {
		c.corrupting = false
	}
	c.mu.Unlock()
	time.Sleep(plan.delay)
	stats := &c.t.stats
	if corrupt {
		stats.corrupted.Add(1)
		return plan.corruptAt, nil
	}
	if op != plan.failAfter {
		return -1, nil
	}
	switch plan.kind {
	case faultDrop:
		stats.dropped.Add(1)
		return -1, errDropped
	case faultCrash:
		stats.crashed.Add(1)
		// A crash is the far side dying, not a polite shutdown: hard-close
		// the underlying conn so BOTH directions break, then surface the
		// error on this operation too.
		c.closeInner()
		return -1, fmt.Errorf("%w: worker crashed mid-shard", ErrInjected)
	}
	return -1, nil
}

func (c *faultConn) Read(p []byte) (int, error) {
	corruptAt, err := c.tick(len(p))
	if err != nil {
		return 0, err
	}
	n, err := c.inner.Read(p)
	if corruptAt >= 0 && n > 0 {
		// Flip one bit in the delivered bytes; XOR with a non-zero mask is
		// guaranteed to change the byte, so the CRC check MUST trip.
		p[corruptAt%n] ^= 0x20
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.watchJobs(p)
	corruptAt, err := c.tick(len(p))
	if err != nil {
		if errors.Is(err, errDropped) && len(p) > 1 {
			// A real drop is rarely frame-aligned: ship half the buffer so
			// the peer is left holding a truncated frame.
			n, _ := c.inner.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	if corruptAt >= 0 && len(p) > 0 {
		q := append([]byte(nil), p...)
		q[corruptAt%len(q)] ^= 0x20
		return c.inner.Write(q)
	}
	return c.inner.Write(p)
}

// closeInner routes every close (fault-triggered or caller-triggered)
// through one sync.Once — crash injection and the coordinator's failure
// cleanup would otherwise double-close conns whose Close is not
// idempotent (execConn's second Wait errors).
func (c *faultConn) closeInner() error {
	c.closeOnce.Do(func() { c.closeErr = c.inner.Close() })
	return c.closeErr
}

func (c *faultConn) Close() error { return c.closeInner() }

// SetReadDeadline forwards to the inner conn when it supports
// deadlines, and reports errNoDeadline otherwise so the coordinator
// arms its watchdog instead.
func (c *faultConn) SetReadDeadline(t time.Time) error {
	if c.deadline == nil {
		return errNoDeadline
	}
	return c.deadline.SetReadDeadline(t)
}

// SetWriteDeadline mirrors SetReadDeadline.
func (c *faultConn) SetWriteDeadline(t time.Time) error {
	if c.deadline == nil {
		return errNoDeadline
	}
	return c.deadline.SetWriteDeadline(t)
}

// WorkerID forwards the inner conn's worker identity (TCP conns carry
// their address) so health scoring sees through the chaos wrapper.
func (c *faultConn) WorkerID() string {
	if wc, can := c.inner.(interface{ WorkerID() string }); can {
		return wc.WorkerID()
	}
	return ""
}
