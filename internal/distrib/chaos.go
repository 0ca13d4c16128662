package distrib

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every fault the ChaosTransport
// injects, so tests (and the coordinator's error accounting) can tell a
// manufactured failure from a real one with errors.Is.
var ErrInjected = errors.New("distrib: injected fault")

// ChaosOptions configures deterministic fault injection. All randomness
// derives from Seed — two ChaosTransports with equal options inject the
// same faults at the same byte offsets on the same dial sequence, which
// is what lets the chaos property tests replay a failure exactly. No
// wall clock is consulted for fault decisions; the only time-dependent
// behavior is the artificial latency itself, and Sleep makes even that
// injectable.
type ChaosOptions struct {
	// Seed drives every fault decision. The per-connection RNG is
	// derived from Seed and the dial ordinal, so concurrent dials do not
	// race over one shared RNG stream.
	Seed int64
	// RefuseRate is the probability that a Dial fails outright with a
	// connection-refused error, before the inner transport is touched.
	RefuseRate float64
	// DropRate is the probability that a successful connection is doomed
	// to die mid-frame: after a random number of I/O operations the next
	// write ships only a partial frame and errors, or the next read
	// errors, exactly as a yanked cable would.
	DropRate float64
	// CorruptRate is the probability that a connection flips one payload
	// byte at a random operation and then keeps going. The CRC-32C frame
	// trailer must convert this into a detected ErrChecksum.
	CorruptRate float64
	// CrashRate is the probability that the connection's far side "dies"
	// mid-shard: the underlying conn is hard-closed from under the
	// stream after a random number of operations.
	CrashRate float64
	// MaxDelay, when positive, adds a per-connection artificial latency
	// of up to MaxDelay (chosen once per conn, applied before every I/O
	// operation) — the straggler generator for deadline tests.
	MaxDelay time.Duration
	// Sleep replaces time.Sleep for the artificial latency; nil uses
	// time.Sleep. Tests pass a recorder or no-op to stay wall-clock
	// free.
	Sleep func(time.Duration)
}

// chaosMaxOps bounds the operation ordinal at which a doomed
// connection's fault fires. One frame costs ~3 operations per side, so
// the window covers the handshake, the job send, and the early response
// stream — the interesting places to die.
const chaosMaxOps = 64

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
// Each accepted dial draws one fault plan from a per-dial RNG: at most
// one scripted fault per connection, firing at a random operation
// ordinal. Per-connection (not per-operation) fault probabilities keep
// the math honest: "30% drop rate" means 30% of connections die, not a
// compounding per-read coin that no multi-frame shard could ever
// survive.
type ChaosTransport struct {
	Inner Transport
	Opts  ChaosOptions

	dials atomic.Int64
	stats struct {
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

// splitmix64 is the per-dial seed mixer: a full-avalanche permutation,
// so consecutive dial ordinals land on uncorrelated RNG streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Dial implements Transport.
func (t *ChaosTransport) Dial() (io.ReadWriteCloser, error) {
	ord := t.dials.Add(1) - 1
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(t.Opts.Seed) + splitmix64(uint64(ord))))))
	if rng.Float64() < t.Opts.RefuseRate {
		t.stats.refused.Add(1)
		return nil, fmt.Errorf("%w: connection refused (dial %d)", ErrInjected, ord)
	}
	inner, err := t.Inner.Dial()
	if err != nil {
		return nil, err
	}
	fc := &faultConn{
		inner: inner,
		plan:  t.buildPlan(rng),
		stats: &t.stats,
		sleep: t.Opts.Sleep,
	}
	if fc.sleep == nil {
		fc.sleep = time.Sleep
	}
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

// faultPlan is one connection's scripted fate, drawn at dial time.
type faultPlan struct {
	kind      int
	failAfter int64         // operation ordinal the fault fires at (1-based)
	corruptAt int           // byte offset hint for faultCorrupt
	delay     time.Duration // per-operation artificial latency
}

func (t *ChaosTransport) buildPlan(rng *rand.Rand) faultPlan {
	p := faultPlan{kind: faultNone, failAfter: int64(1 + rng.Intn(chaosMaxOps)), corruptAt: rng.Intn(1 << 16)}
	// One draw picks the fault class from disjoint probability bands, so
	// the configured rates are exact per-connection probabilities.
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

// faultConn wraps a worker connection with its scripted fault. I/O
// operations (reads and writes jointly) are counted under a mutex; when
// the count reaches the plan's ordinal the fault fires exactly once.
type faultConn struct {
	inner    io.ReadWriteCloser
	plan     faultPlan
	stats    *struct{ refused, dropped, corrupted, crashed atomic.Int64 }
	sleep    func(time.Duration)
	deadline deadlineConn // nil when the inner conn has no deadline support

	ops       atomic.Int64
	closeOnce sync.Once
	closeErr  error
}

// tick advances the operation counter, applies latency, and fires the
// scripted fault when its ordinal arrives. It reports whether this
// operation should corrupt its payload, or the injected error.
func (c *faultConn) tick() (corrupt bool, err error) {
	op := c.ops.Add(1)
	if c.plan.delay > 0 {
		c.sleep(c.plan.delay)
	}
	if op != c.plan.failAfter {
		return false, nil
	}
	switch c.plan.kind {
	case faultDrop:
		c.stats.dropped.Add(1)
		return false, fmt.Errorf("%w: connection dropped mid-frame", ErrInjected)
	case faultCrash:
		c.stats.crashed.Add(1)
		// A crash is the far side dying, not a polite shutdown: hard-close
		// the underlying conn so BOTH directions break, then surface the
		// error on this operation too.
		c.closeInner()
		return false, fmt.Errorf("%w: worker crashed mid-shard", ErrInjected)
	case faultCorrupt:
		c.stats.corrupted.Add(1)
		return true, nil
	}
	return false, nil
}

func (c *faultConn) Read(p []byte) (int, error) {
	corrupt, err := c.tick()
	if err != nil {
		return 0, err
	}
	n, err := c.inner.Read(p)
	if corrupt && n > 0 {
		// Flip one bit in the delivered bytes; XOR with a non-zero mask is
		// guaranteed to change the byte, so the CRC check MUST trip.
		p[c.plan.corruptAt%n] ^= 0x20
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	corrupt, err := c.tick()
	if err != nil {
		if errors.Is(err, ErrInjected) && c.plan.kind == faultDrop && len(p) > 1 {
			// A real drop is rarely frame-aligned: ship half the buffer so
			// the peer is left holding a truncated frame.
			n, _ := c.inner.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	if corrupt && len(p) > 0 {
		q := append([]byte(nil), p...)
		q[c.plan.corruptAt%len(q)] ^= 0x20
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
