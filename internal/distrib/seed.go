// Warm-counter seed shipping — how every job gets its networks and its
// counts. The expensive anchor-free count layer (the attribute meta-path
// products, which by Lemma 2 never read an anchor) is a function of the
// pair alone, so the coordinator exports it once (metadiag.ExportSeed,
// from the facade's already-warm base counter when available) and ships
// it, with the pair's networks, once per worker process. Every job after
// that is a few kilobytes of pool indices against it: the worker forks
// its seeded counter exactly like the in-process PartitionedAligner forks
// its base, so the votes are bit-identical by construction. There is no
// other job shape — a session that cannot build its seed fails with that
// error (Session.Run) instead of shipping something else.
//
// The per-connection negotiation is SeedRef → CacheAck(Shard −1) →
// [Seed], before the first job: workers cache installed seeds process-
// wide under the seed fingerprint, so a second connection into the same
// worker process — another slot of the run, another session, a redial
// of a TCP or loopback worker whose process survived — answers the
// SeedRef with a hit and ships nothing. That is a property of the
// process, not of the run: over Exec every dial is a new process with an
// empty cache, so a redial after a burnt connection ships again.
package distrib

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
)

// SeedRef offers a warm-counter seed to a freshly dialed worker. The
// worker answers with a CacheAck (Shard −1, the no-shard sentinel):
// Hit means it already holds the fingerprint and the Seed body is not
// shipped.
type SeedRef struct {
	Fingerprint uint64
}

// WireSeed is the warm-counter seed body: the ORIGINAL pair's networks
// plus the anchor-free count matrices of the run's feature library. A
// worker installs it once (networks decoded, a counter built and
// seeded) and serves every job of any shard from forks of that
// counter. Entries are independent byte segments on the wire so encode
// and decode parallelize across GOMAXPROCS.
type WireSeed struct {
	Fingerprint uint64
	AnchorType  string
	G1, G2      WireNetwork
	Entries     []metadiag.SeedEntry
	// TraceID/SpanID (v6 tail) carry the coordinator's trace context for
	// the negotiation: the worker logs its install keyed by the trace ID
	// so a cross-process trace correlates with worker-side logs.
	TraceID uint64
	SpanID  uint64
}

// seedFingerprint names a seed by its replay-relevant content: the
// networks (by their structural fingerprints), the anchor type, and the
// feature set whose library the entries cover. The count matrices
// themselves are a deterministic function of those inputs, so they stay
// out of the hash — which is what lets a worker that got the layer from
// an earlier run of the same pair answer a SeedRef with a hit. Never
// returns 0, which no job may name.
func seedFingerprint(pair *hetnet.AlignedPair, featureSet string) uint64 {
	f := &fingerprintHasher{h: fnv.New64a()}
	f.u64(pair.G1.Fingerprint())
	f.u64(pair.G2.Fingerprint())
	f.str(string(pair.AnchorType))
	f.str(featureSet)
	if s := f.h.Sum64(); s != 0 {
		return s
	}
	return 1
}

// buildSeed exports the pair's warm-counter seed and pre-encodes its
// frame body once per run. base, when non-nil, must be a counter over
// pair (the facade hands over its own, shared with planning); nil
// cold-counts — still once per run, not once per shard×worker. The
// counter the seed came from is returned as installed: it is what this
// process's seed cache now holds under fp, and what the session hands
// back to seedCacheEvict when it closes.
func buildSeed(pair *hetnet.AlignedPair, base *metadiag.Counter, cfg TrainConfig, traceID uint64) (fp uint64, body []byte, installed *metadiag.Counter, err error) {
	feats, err := ResolveFeatures(cfg.FeatureSet)
	if err != nil {
		return 0, nil, nil, err
	}
	if base == nil {
		if base, err = metadiag.NewCounter(pair); err != nil {
			return 0, nil, nil, err
		}
	}
	seed, err := base.ExportSeed(feats)
	if err != nil {
		return 0, nil, nil, err
	}
	ws := &WireSeed{
		Fingerprint: seedFingerprint(pair, cfg.FeatureSet),
		AnchorType:  string(pair.AnchorType),
		G1:          EncodeNetwork(pair.G1),
		G2:          EncodeNetwork(pair.G2),
		Entries:     seed.Entries,
		// The body is encoded once per run and shared by every connection,
		// so the seed carries the run's trace ID with no per-negotiation
		// span: the worker correlates its install log by trace ID.
		TraceID: traceID,
	}
	// Pre-install the warm counter into this process's seed cache:
	// workers sharing the coordinator's process (loopback, in-process
	// fallback) then answer every SeedRef with a hit and fork the very
	// counter the coordinator already holds — zero bytes shipped, zero
	// re-derivation, and exactly the fork the in-process facade performs.
	// Remote workers are unaffected; the entry is two pointers, not a
	// copy — but those pointers keep the whole count layer alive, which is
	// why Session.Close takes the entry out again.
	seedCachePut(ws.Fingerprint, &seedEntry{pair: pair, counter: base})
	return ws.Fingerprint, ws.appendBody(nil), base, nil
}

// negotiateSeed runs the coordinator side of the per-connection seed
// handshake, immediately after Hello and before the first job. body is
// the pre-encoded WireSeed frame body (written through the codec
// directly, so a run encodes its seed exactly once). Returns the bytes
// written and whether the body was actually shipped (false on a
// ref-hit). An error leaves the connection in an unknown state — the
// caller burns it.
func negotiateSeed(conn io.ReadWriter, fp uint64, body []byte) (n int64, shipped bool, err error) {
	cw := &countingWriter{w: conn}
	if err := WriteFrame(cw, FrameSeedRef, &SeedRef{Fingerprint: fp}); err != nil {
		return cw.n, false, err
	}
	var ack CacheAck
	if err := ReadExpect(conn, FrameCacheAck, &ack); err != nil {
		return cw.n, false, err
	}
	if ack.Fingerprint != fp {
		return cw.n, false, fmt.Errorf("distrib: seed ack fingerprint %016x, want %016x", ack.Fingerprint, fp)
	}
	if ack.Hit {
		return cw.n, false, nil
	}
	if err := codec.WriteFrame(cw, byte(FrameSeed), body); err != nil {
		return cw.n, true, fmt.Errorf("distrib: %w", err)
	}
	// Block until the worker confirms the install. Writing the body only
	// proves the bytes left this side; until the ack the seed is not
	// resident, and a job sent now would fail on a missing seed. The
	// worker holds every other connection's SeedRef for this fingerprint
	// until the same moment (seedClaim), so the ack is also what lets
	// them answer with a hit instead of a second ship. A failed install
	// surfaces here as the worker's Error frame (ReadExpect converts it),
	// burning the connection during negotiation instead of poisoning the
	// first job stream.
	if err := ReadExpect(conn, FrameCacheAck, &ack); err != nil {
		return cw.n, true, err
	}
	if ack.Fingerprint != fp || !ack.Hit {
		return cw.n, true, fmt.Errorf("distrib: seed install ack %016x hit=%v, want %016x hit", ack.Fingerprint, ack.Hit, fp)
	}
	return cw.n, true, nil
}

// seedEntry is one installed seed on the worker side: the decoded pair
// and a counter whose shared cache holds the seed's matrices. Jobs fork
// the counter; the pair and shared cache are thread-safe, so the entry
// serves every connection of the process.
type seedEntry struct {
	pair    *hetnet.AlignedPair
	counter *metadiag.Counter
}

// DefaultSeedCacheSize bounds the process-wide installed-seed cache. A
// seed holds the full anchor-free count layer of one pair — hundreds of
// megabytes at crawl scale — so the bound is tiny; a worker normally
// serves one pair at a time and an eviction only costs a re-ship.
const DefaultSeedCacheSize = 2

// The installed-seed cache is process-global, not per-connection:
// loopback transports dial many short-lived connections into one
// process, and the whole point is to install once. seedPending is its
// in-flight half: the fingerprints some connection has been told to
// ship (its SeedRef was acked with a miss) and has not installed yet.
var (
	seedMu      sync.Mutex
	seedLRU     []uint64
	seedCache   = map[uint64]*seedEntry{}
	seedPending = map[uint64]*pendingSeed{}
)

// pendingSeed is one install in flight. owner identifies the worker
// connection whose coordinator is shipping the body; done is closed when
// that install finishes or the owner's connection ends without one.
type pendingSeed struct {
	owner *seedOwner
	done  chan struct{}
}

// seedOwner is a worker connection's identity in seedPending — a
// distinct address per Serve call, nothing more.
type seedOwner struct{ _ byte }

func seedCacheGet(fp uint64) *seedEntry {
	seedMu.Lock()
	defer seedMu.Unlock()
	e := seedCache[fp]
	if e != nil {
		seedTouch(fp)
	}
	return e
}

func seedTouch(fp uint64) {
	for k, f := range seedLRU {
		if f == fp {
			seedLRU = append(append(seedLRU[:k:k], seedLRU[k+1:]...), fp)
			return
		}
	}
	seedLRU = append(seedLRU, fp)
}

func seedCachePut(fp uint64, e *seedEntry) {
	seedMu.Lock()
	defer seedMu.Unlock()
	seedCache[fp] = e
	seedTouch(fp)
	for len(seedCache) > DefaultSeedCacheSize {
		seedForget(seedLRU[0])
	}
}

// seedForget drops fp from the cache and its LRU order. Callers hold
// seedMu.
func seedForget(fp uint64) {
	delete(seedCache, fp)
	seedLRU = slices.DeleteFunc(seedLRU, func(f uint64) bool { return f == fp })
}

// seedCacheEvict removes the entry buildSeed pre-installed under fp, if
// it is still the resident one. The comparison is on the counter: an
// entry some later session (or a shipped install) put there in the
// meantime is theirs to keep. A concurrent session on the same pair
// whose entry goes this way heals through the ordinary miss → ship path.
func seedCacheEvict(fp uint64, counter *metadiag.Counter) {
	seedMu.Lock()
	defer seedMu.Unlock()
	if e := seedCache[fp]; e != nil && e.counter == counter {
		seedForget(fp)
	}
}

// seedClaim answers a SeedRef on the worker side: true when fp is
// resident (ack a hit), false when the asking connection must be shipped
// the body (ack a miss) — and then fp stays pending on owner until
// seedRelease. A connection that asks while fp is pending on another one
// waits here for that install instead of being told to ship a second
// copy: N fresh connections into one worker process cost one body,
// whichever sessions they belong to. If the owner's connection ends
// first, the first waiter to wake becomes the owner.
func seedClaim(fp uint64, owner *seedOwner) (hit bool) {
	for {
		seedMu.Lock()
		if seedCache[fp] != nil {
			seedTouch(fp)
			seedMu.Unlock()
			return true
		}
		p := seedPending[fp]
		if p == nil {
			seedPending[fp] = &pendingSeed{owner: owner, done: make(chan struct{})}
		}
		seedMu.Unlock()
		if p == nil || p.owner == owner {
			return false
		}
		// The owner negotiates under its coordinator's shard deadline, so
		// this wait ends with that install, that deadline, or that
		// connection — whichever comes first.
		<-p.done
	}
}

// seedRelease ends whatever claims owner holds — after its install,
// failed or not, and when its connection ends for any reason — and wakes
// whoever waited on them.
func seedRelease(owner *seedOwner) {
	seedMu.Lock()
	defer seedMu.Unlock()
	for fp, p := range seedPending {
		if p.owner == owner {
			delete(seedPending, fp)
			close(p.done)
		}
	}
}

// installSeed decodes and installs a shipped seed: networks decoded and
// validated, an anchor-free pair built, a fresh counter seeded with the
// entries (each structurally validated by SeedInto). Idempotent per
// fingerprint.
func installSeed(ws *WireSeed) error {
	if seedCacheGet(ws.Fingerprint) != nil {
		return nil
	}
	g1, err := ws.G1.Decode()
	if err != nil {
		return err
	}
	g2, err := ws.G2.Decode()
	if err != nil {
		return err
	}
	pair := hetnet.NewAlignedPair(g1, g2)
	if ws.AnchorType != "" {
		pair.AnchorType = hetnet.NodeType(ws.AnchorType)
	}
	// The seed pair carries no anchors on purpose: anchors are per-shard
	// training state (each job's TrainPos, set on the fork), never part
	// of the shared anchor-free layer.
	if err := pair.Validate(); err != nil {
		return fmt.Errorf("distrib: seed pair: %w", err)
	}
	counter, err := metadiag.NewCounter(pair)
	if err != nil {
		return err
	}
	if err := counter.SeedInto(&metadiag.Seed{Entries: ws.Entries}); err != nil {
		return err
	}
	seedCachePut(ws.Fingerprint, &seedEntry{pair: pair, counter: counter})
	logger.Debug("installed warm-counter seed",
		"fingerprint", fmt.Sprintf("%016x", ws.Fingerprint), "trace", fmt.Sprintf("%#x", ws.TraceID))
	return nil
}

// appendSeedEntry encodes one count matrix as a self-contained segment:
// key, shape, per-row column-index deltas (uvarint row length, first
// column absolute, then gaps — strictly increasing columns make every
// gap ≥ 1), then the value run. Counts are exact non-negative integers
// below 2^53 in practice (path multiplicities), so values normally pack
// as uvarints; a flag byte keeps raw float64 as the general-case
// fallback.
func appendSeedEntry(b []byte, e *metadiag.SeedEntry) []byte {
	ints, top := true, 0.0
	for _, v := range e.Val {
		if v != math.Trunc(v) || v < 0 || v >= 1<<53 {
			ints = false
			break
		}
		top = max(top, v)
	}
	// One allocation for the whole segment: no row length or column gap
	// exceeds Cols and no value exceeds top, which bounds every varint's
	// width. A matrix that breaks those rules only outgrows the hint.
	idxWidth, valWidth := uvarintLen(uint64(e.Cols)), 8
	if ints {
		valWidth = uvarintLen(uint64(top))
	}
	b = slices.Grow(b, len(e.Key)+3*binary.MaxVarintLen64+1+
		(len(e.RowPtr)+len(e.ColIdx))*idxWidth+len(e.Val)*valWidth)
	b = framing.AppendString(b, e.Key)
	b = framing.AppendVarint(b, int64(e.Rows))
	b = framing.AppendVarint(b, int64(e.Cols))
	for r := 0; r < e.Rows; r++ {
		lo, hi := e.RowPtr[r], e.RowPtr[r+1]
		b = framing.AppendUvarint(b, uint64(hi-lo))
		prev := 0
		for k := lo; k < hi; k++ {
			c := e.ColIdx[k]
			b = framing.AppendUvarint(b, uint64(c-prev))
			prev = c
		}
	}
	b = framing.AppendBool(b, ints)
	if ints {
		for _, v := range e.Val {
			b = framing.AppendUvarint(b, uint64(v))
		}
	} else {
		for _, v := range e.Val {
			b = framing.AppendFloat64(b, v)
		}
	}
	return b
}

// uvarintLen is the encoded size of v in bytes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// uvarintAt decodes the uvarint at b[p:] and returns the position after
// it; next < 0 reports a truncated or overlong value. The decode loops
// below read one-byte values themselves and come here for the rest.
func uvarintAt(b []byte, p int) (v uint64, next int) {
	v, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return 0, -1
	}
	return v, p + n
}

// seedTruncated is the error of a seed segment that ends, or overflows a
// varint, before its declared content does.
func seedTruncated(what string) error {
	return fmt.Errorf("%w: %s", framing.ErrTruncated, what)
}

// decodeSeedEntry is the inverse; structural trust is deferred to
// sparse.FromRaw inside SeedInto (shape, monotone rowPtr, in-range
// strictly-increasing columns), so only allocation bounds are enforced
// here. A seed is millions of mostly one-byte varints, so the segment is
// walked with a local cursor instead of a framing.Dec call per value,
// and twice: a counting pass over the index section finds every row's
// length — and so the exact column count — before the column array is
// made, so nothing is grown and nothing allocated is larger than the
// bytes that were actually there to fill it.
func decodeSeedEntry(seg []byte) (metadiag.SeedEntry, error) {
	var e metadiag.SeedEntry
	d := framing.NewDec(seg)
	e.Key = d.String()
	e.Rows = d.Int()
	e.Cols = d.Int()
	if d.Err() == nil && (e.Rows < 0 || e.Rows > d.Remaining()) {
		// Each row costs at least its 1-byte length.
		d.Fail("seed row count")
	}
	if d.Err() != nil {
		return e, d.Err()
	}
	b := seg[len(seg)-d.Remaining():]

	// Counting pass: read each row's length, step over that many column
	// varints by their terminator bytes (high bit clear).
	rowPtr := make([]int, e.Rows+1)
	p, nnz := 0, 0
	for r := 0; r < e.Rows; r++ {
		if p == len(b) {
			return e, seedTruncated("seed row length")
		}
		n := uint64(b[p])
		p++
		if n >= 0x80 {
			if n, p = uvarintAt(b, p-1); p < 0 {
				return e, seedTruncated("seed row length")
			}
		}
		if n > uint64(len(b)-p) {
			return e, seedTruncated("seed row length")
		}
		for left := int(n); left > 0; p++ {
			if p == len(b) {
				return e, seedTruncated("seed column run")
			}
			if b[p] < 0x80 {
				left--
			}
		}
		nnz += int(n)
		rowPtr[r+1] = nnz
	}
	values := p

	// Decode pass: the counting pass proved every varint below ends inside
	// b, so only an overlong one can still fail.
	colIdx := make([]int, nnz)
	p = 0
	for r := 0; r < e.Rows; r++ {
		for b[p] >= 0x80 { // the row length, already read
			p++
		}
		p++
		prev := 0
		for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
			gap := uint64(b[p])
			p++
			if gap >= 0x80 {
				if gap, p = uvarintAt(b, p-1); p < 0 {
					return e, seedTruncated("seed column gap")
				}
			}
			prev += int(gap)
			colIdx[k] = prev
		}
	}

	// Values: a strict flag byte, then nnz uvarints or nnz packed floats.
	p = values
	if p == len(b) {
		return e, seedTruncated("seed value flag")
	}
	if b[p] > 1 {
		return e, fmt.Errorf("framing: bool byte %d", b[p])
	}
	ints := b[p] == 1
	p++
	width := 8
	if ints {
		width = 1
	}
	if nnz > (len(b)-p)/width {
		return e, seedTruncated("seed values")
	}
	val := make([]float64, nnz)
	if ints {
		for k := range val {
			if p == len(b) {
				return e, seedTruncated("seed values")
			}
			v := uint64(b[p])
			p++
			if v >= 0x80 {
				if v, p = uvarintAt(b, p-1); p < 0 {
					return e, seedTruncated("seed values")
				}
			}
			val[k] = float64(v)
		}
	} else {
		for k := range val {
			val[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[p:]))
			p += 8
		}
	}
	if p != len(b) {
		return e, fmt.Errorf("framing: %d trailing bytes after seed entry", len(b)-p)
	}
	e.RowPtr, e.ColIdx, e.Val = rowPtr, colIdx, val
	return e, nil
}

// parallelFor runs f over [0,n) on up to GOMAXPROCS goroutines — seed
// entries encode and decode independently, and on a multi-core worker
// the handful of big matrices dominate the wall clock.
func parallelFor(n int, f func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// WireSeed body: scalars, the two networks, then each entry as an
// independent length-prefixed segment.
func (ws *WireSeed) appendBody(b []byte) []byte {
	b = framing.AppendUvarint(b, ws.Fingerprint)
	b = framing.AppendString(b, ws.AnchorType)
	b = ws.G1.appendTo(b)
	b = ws.G2.appendTo(b)
	b = framing.AppendUvarint(b, uint64(len(ws.Entries)))
	segs := make([][]byte, len(ws.Entries))
	parallelFor(len(ws.Entries), func(i int) {
		segs[i] = appendSeedEntry(nil, &ws.Entries[i])
	})
	rest := 2 * binary.MaxVarintLen64 // the trace tail
	for _, seg := range segs {
		rest += binary.MaxVarintLen64 + len(seg)
	}
	b = slices.Grow(b, rest)
	for _, seg := range segs {
		b = framing.AppendBytes(b, seg)
	}
	b = framing.AppendUvarint(b, ws.TraceID)
	b = framing.AppendUvarint(b, ws.SpanID)
	return b
}

func (ws *WireSeed) decodeBody(body []byte) error {
	d := framing.NewDec(body)
	ws.Fingerprint = d.Uvarint()
	ws.AnchorType = d.String()
	ws.G1.decodeFrom(d)
	ws.G2.decodeFrom(d)
	n := d.Uvarint()
	if d.Err() == nil && n > uint64(d.Remaining()) {
		d.Fail("seed entry count")
	}
	if d.Err() != nil {
		return fmt.Errorf("distrib: seed frame: %w", d.Err())
	}
	// Slice out the segments serially (cheap), decode them in parallel.
	// Raw views alias the frame body, which is ours alone — ReadFrame
	// allocates a fresh body per frame.
	segs := make([][]byte, n)
	for i := range segs {
		segs[i] = d.Raw()
	}
	ws.TraceID = d.Uvarint()
	ws.SpanID = d.Uvarint()
	if err := finish(d, "seed"); err != nil {
		return err
	}
	ws.Entries = make([]metadiag.SeedEntry, n)
	errs := make([]error, n)
	parallelFor(int(n), func(i int) {
		ws.Entries[i], errs[i] = decodeSeedEntry(segs[i])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("distrib: seed entry %d: %w", i, err)
		}
	}
	return nil
}
