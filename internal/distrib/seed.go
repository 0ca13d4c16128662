// Warm-counter seed shipping — how every job gets its counter. The
// expensive anchor-free count layer (the attribute meta-path products,
// which by Lemma 2 never read an anchor) is a function of the pair alone,
// so the coordinator exports it once (metadiag.ExportSeed, from the
// facade's already-warm base counter when available) and ships it once
// per worker process: the serialised state of a seeded counter — anchor
// type and node counts, schema, the adjacencies the feature set traverses
// as bare edges, the anchor-free counts — and nothing of the networks
// themselves. A worker builds a network-free counter from it
// (metadiag.NewSeededCounter); every job after that is a few kilobytes of
// pool indices against it, and the worker forks its seeded counter
// exactly like the in-process PartitionedAligner forks its base, so the
// votes are bit-identical by construction. There is no other job shape —
// a session that cannot build its seed fails with that error
// (Session.Run) instead of shipping something else.
//
// The seed rides the connection's handshake, before the first job: the
// coordinator's Hello offers the fingerprint, the worker's Hello names the
// seed it holds for it, and only on a miss does the Seed body ship (and a
// second worker Hello confirm the install). Workers cache installed seeds
// process-wide under the seed fingerprint, so a second connection into
// the same worker process — another slot of the run, another session, a
// redial of a TCP or loopback worker whose process survived — answers the
// offer with a hit and ships nothing. That is a property of the process,
// not of the run: over Exec every dial is a new process with an empty
// cache, so a redial after a burnt connection ships again. Whatever the
// handshake settles on stays the connection's seed: the worker pins the
// entry, so the process cache evicting it later costs the next
// connection a ship, never this connection a job.
package distrib

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// WireSeed is the warm-counter seed body: the metadiag.Seed of the run's
// feature library under its fingerprint. A worker installs it once (a
// network-free counter built from it) and serves every job of any shard
// from forks of that counter. Adjacency and count entries are
// independent byte segments on the wire so encode and decode parallelize
// across GOMAXPROCS.
type WireSeed struct {
	Fingerprint uint64
	metadiag.Seed
	// TraceID/SpanID (v6 tail) carry the coordinator's trace context for
	// the handshake: the worker logs its install keyed by the trace ID
	// so a cross-process trace correlates with worker-side logs.
	TraceID uint64
	SpanID  uint64
}

// seedFingerprint names a seed by its replay-relevant content: the
// networks (by their structural fingerprints), the anchor type, and the
// feature set whose library the entries cover. The count matrices
// themselves are a deterministic function of those inputs, so they stay
// out of the hash — which is what lets a worker that got the layer from
// an earlier run of the same pair answer the offer with a hit. Never
// returns 0, which a worker's Hello uses for "ship it". The inputs are
// fed to FNV-1a field by field, strings length-prefixed, so two processes
// holding equal values agree on the hash.
func seedFingerprint(pair *hetnet.AlignedPair, featureSet string) uint64 {
	h := fnv.New64a()
	u64 := func(v uint64) { h.Write(binary.BigEndian.AppendUint64(nil, v)) }
	u64(pair.G1.Fingerprint())
	u64(pair.G2.Fingerprint())
	for _, str := range []string{string(pair.AnchorType), featureSet} {
		u64(uint64(len(str)))
		h.Write([]byte(str))
	}
	if s := h.Sum64(); s != 0 {
		return s
	}
	return 1
}

// exportSeed exports the pair's warm-counter seed, once per run. base,
// when non-nil, must be a counter over pair (the facade hands over its
// own, shared with planning); nil cold-counts — still once per run, not
// once per shard×worker. The counter the seed came from is returned as
// installed: it is what this process's seed cache now holds under the
// seed's fingerprint, and what the session hands back to seedCacheEvict
// when it closes. The session encodes the seed's frame body at most once
// (WireSeed.appendBody), on the first miss, and every connection that
// ships sends those bytes.
func exportSeed(pair *hetnet.AlignedPair, base *metadiag.Counter, cfg TrainConfig, traceID uint64) (ws *WireSeed, installed *metadiag.Counter, err error) {
	feats, err := ResolveFeatures(cfg.FeatureSet)
	if err != nil {
		return nil, nil, err
	}
	if base == nil {
		if base, err = metadiag.NewCounter(pair); err != nil {
			return nil, nil, err
		}
	}
	seed, err := base.ExportSeed(feats)
	if err != nil {
		return nil, nil, err
	}
	ws = &WireSeed{
		Fingerprint: seedFingerprint(pair, cfg.FeatureSet),
		Seed:        *seed,
		// The body is encoded at most once per run and shared by every
		// connection that ships it, so the seed carries the run's trace ID
		// with no per-connection span: the worker correlates its install
		// log by trace ID.
		TraceID: traceID,
	}
	// Pre-install the warm counter into this process's seed cache:
	// workers sharing the coordinator's process (loopback, in-process
	// fallback) then answer every offer with a hit and fork the very
	// counter the coordinator already holds — zero bytes shipped, zero
	// re-derivation, and exactly the fork the in-process facade performs.
	// Remote workers are unaffected; the entry is a pointer, not a copy —
	// but it keeps the whole count layer alive, which is why Session.Close
	// takes the entry out again.
	seedCachePut(ws.Fingerprint, newSeedEntry(base, seed))
	return ws, base, nil
}

// handshake opens a freshly dialed worker connection: the coordinator's
// Hello offers the seed named fp, and the worker's Hello names the seed
// it holds for the connection. On 0 — a miss — the body ships (written
// through the codec directly; body is called only then, so a session
// encodes its seed at most once and only when some worker lacks it), and
// the handshake waits for the worker's second Hello.
// Returns the Seed frame bytes written, 0 unless the body shipped. An
// error leaves the connection in an unknown state — the caller burns it.
func handshake(conn io.ReadWriter, fp uint64, body func() []byte) (shipped int64, err error) {
	if err := WriteFrame(conn, FrameHello, &Hello{Role: "coordinator", SeedFP: fp}); err != nil {
		return 0, err
	}
	var h Hello
	if err := ReadExpect(conn, FrameHello, &h); err != nil || h.SeedFP == fp {
		return 0, err
	}
	if h.SeedFP != 0 {
		return 0, fmt.Errorf("distrib: worker holds seed %016x, offered %016x", h.SeedFP, fp)
	}
	cw := &countingWriter{w: conn}
	if err := codec.WriteFrame(cw, byte(FrameSeed), body()); err != nil {
		return cw.n, fmt.Errorf("distrib: %w", err)
	}
	// Block until the worker confirms the install. Writing the body only
	// proves the bytes left this side; until the confirmation the seed is
	// not resident. The worker holds every other connection's offer for
	// this fingerprint until the same moment (seedClaim), so the
	// confirmation is also what lets them answer with a hit instead of a
	// second ship. A failed install surfaces here as the worker's Error
	// frame (ReadExpect converts it), burning the connection during connect
	// instead of poisoning the first job stream.
	if err := ReadExpect(conn, FrameHello, &h); err != nil {
		return cw.n, err
	}
	if h.SeedFP != fp {
		return cw.n, fmt.Errorf("distrib: worker installed seed %016x, offered %016x", h.SeedFP, fp)
	}
	return cw.n, nil
}

// acceptSeed is the worker half of the handshake: it answers the
// coordinator's offer with the resident entry's fingerprint or 0, installs
// a shipped body and confirms it. The entry it returns is the
// connection's seed for the connection's lifetime. A failed install is
// answered with an Error frame and ends the connection: without a seed it
// has nothing to serve.
func acceptSeed(conn io.ReadWriter) (*seedEntry, error) {
	var offer Hello
	if err := ReadExpect(conn, FrameHello, &offer); err != nil {
		return nil, err
	}
	if offer.SeedFP == 0 {
		return nil, fmt.Errorf("distrib: coordinator Hello offers no seed")
	}
	// A miss makes this connection the one shipping the seed; an offer
	// that finds another connection already doing so waits for that
	// install and then hits (seedClaim). The claim ends with the install,
	// or with this function, however it returns.
	owner := new(seedOwner)
	defer seedRelease(owner)
	if seed := seedClaim(offer.SeedFP, owner); seed != nil {
		return seed, WriteFrame(conn, FrameHello, &Hello{Role: "worker", SeedFP: offer.SeedFP})
	}
	if err := WriteFrame(conn, FrameHello, &Hello{Role: "worker"}); err != nil {
		return nil, err
	}
	// A decode failure here means a codec bug, not a bad seed — the CRC
	// already vouched for the bytes.
	var ws WireSeed
	if err := ReadExpect(conn, FrameSeed, &ws); err != nil {
		return nil, err
	}
	seed, err := installSeed(&ws)
	// Let the connections waiting on this install go: after a success they
	// hit, after a failure one of them ships next.
	seedRelease(owner)
	if err != nil {
		if werr := WriteFrame(conn, FrameError, &JobError{Shard: -1, Msg: err.Error()}); werr != nil {
			return nil, werr
		}
		return nil, fmt.Errorf("distrib: seed install: %w", err)
	}
	return seed, WriteFrame(conn, FrameHello, &Hello{Role: "worker", SeedFP: ws.Fingerprint})
}

// seedEntry is one installed seed on the worker side: a counter whose
// shared layer is the seed's matrices, the anchor type it joins and the
// two node counts that bound every index a job may name. Jobs fork the
// counter; its shared layer is thread-safe, so the entry serves every
// connection of the process that pinned it.
type seedEntry struct {
	counter    *metadiag.Counter
	anchorType string
	n1, n2     int
}

func newSeedEntry(counter *metadiag.Counter, seed *metadiag.Seed) *seedEntry {
	return &seedEntry{counter: counter, anchorType: string(seed.AnchorType), n1: seed.N1, n2: seed.N2}
}

// DefaultSeedCacheSize bounds the process-wide installed-seed cache. A
// seed holds the full anchor-free count layer of one feature library —
// megabytes of decoded matrices at the bench's default scale, even with
// the attribute counts as one-byte blocks, growing with the pair — so
// the bound is tiny; a worker normally serves one pair at a time and an
// eviction only costs a re-ship.
const DefaultSeedCacheSize = 2

// The installed-seed cache is process-global, not per-connection:
// loopback transports dial many short-lived connections into one
// process, and the whole point is to install once. seedPending is its
// in-flight half: the fingerprints some connection has been told to
// ship (its offer was answered with a miss) and has not installed yet.
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

// seedCacheEvict removes the entry exportSeed pre-installed under fp, if
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

// seedClaim answers an offer on the worker side: the entry resident
// under fp (a hit), or nil when the asking connection must be shipped the
// body (a miss) — and then fp stays pending on owner until seedRelease. A
// connection that asks while fp is pending on another one waits here for
// that install instead of being told to ship a second copy: N fresh
// connections into one worker process cost one body, whichever sessions
// they belong to. If the owner's connection ends first, the first waiter
// to wake becomes the owner.
func seedClaim(fp uint64, owner *seedOwner) *seedEntry {
	for {
		seedMu.Lock()
		if e := seedCache[fp]; e != nil {
			seedTouch(fp)
			seedMu.Unlock()
			return e
		}
		p := seedPending[fp]
		if p == nil {
			seedPending[fp] = &pendingSeed{owner: owner, done: make(chan struct{})}
		}
		seedMu.Unlock()
		if p == nil || p.owner == owner {
			return nil
		}
		// The owner ships under its coordinator's shard deadline, so
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

// installSeed installs a shipped seed: a network-free counter built from
// it, every matrix structurally validated and sized against the declared
// node counts on the way (metadiag.NewSeededCounter). Idempotent per
// fingerprint: a resident entry is returned as it is.
func installSeed(ws *WireSeed) (*seedEntry, error) {
	if e := seedCacheGet(ws.Fingerprint); e != nil {
		return e, nil
	}
	counter, err := metadiag.NewSeededCounter(&ws.Seed)
	if err != nil {
		return nil, err
	}
	e := newSeedEntry(counter, &ws.Seed)
	seedCachePut(ws.Fingerprint, e)
	logger.Debug("installed warm-counter seed",
		"fingerprint", fmt.Sprintf("%016x", ws.Fingerprint), "trace", fmt.Sprintf("%#x", ws.TraceID))
	return e, nil
}

// appendNode writes a typed node as its type name and network byte.
func appendNode(b []byte, n schema.TypedNode) []byte {
	return append(framing.AppendString(b, string(n.Type)), byte(n.Net))
}

func decodeNode(d *framing.Dec) schema.TypedNode {
	n := schema.TypedNode{Type: hetnet.NodeType(d.String()), Net: schema.NetworkRef(d.Byte())}
	if d.Err() == nil && n.Net > schema.Net2 {
		d.Fail("seed node network")
	}
	return n
}

// The layout byte of a seed segment, after its shape.
const (
	seedArrays byte = iota // compressed: column-index deltas, then values
	seedCells              // a block: its Rows·Cols cells, row-major
)

// appendSeedEntry encodes one matrix as a self-contained segment: key,
// endpoint node types, shape, then a layout byte and the matrix in that
// layout. A block (metadiag.SeedEntry.Matrix) is its cells, copied as
// they are: a worker installs the layout the exporter held. Every other
// matrix is compressed: per-row column-index deltas (uvarint row length,
// first column absolute, then gaps — strictly increasing columns make
// every gap ≥ 1), then the value run. Counts are exact non-negative
// integers below 2^53 in practice (path multiplicities), so values
// normally pack as uvarints; a flag byte keeps raw float64 as the
// general-case fallback.
func appendSeedEntry(b []byte, e *metadiag.SeedEntry) []byte {
	head := appendSeedHead(make([]byte, 0, 64), e)
	if cells := blockCells(e); cells != nil {
		return append(append(slices.Grow(b, len(head)+len(cells)), head...), cells...)
	}
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
	b = slices.Grow(b, len(head)+1+(e.Rows+1+len(e.Val))*idxWidth+len(e.Val)*valWidth)
	b = append(b, head...)
	for r := 0; r < e.Rows; r++ {
		cols := e.ColIdx[e.RowPtr[r]:e.RowPtr[r+1]]
		b = framing.AppendUvarint(b, uint64(len(cols)))
		prev := 0
		for _, c := range cols {
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

// appendSeedHead writes a segment's key, endpoint node types, shape and
// layout byte.
func appendSeedHead(b []byte, e *metadiag.SeedEntry) []byte {
	b = framing.AppendString(b, e.Key)
	b = appendNode(b, e.Source)
	b = appendNode(b, e.Sink)
	b = framing.AppendVarint(b, int64(e.Rows))
	b = framing.AppendVarint(b, int64(e.Cols))
	if e.Matrix != nil {
		return append(b, seedCells)
	}
	return append(b, seedArrays)
}

// blockCells returns the cells a block entry ships, nil for a
// compressed one.
func blockCells(e *metadiag.SeedEntry) []byte {
	if e.Matrix == nil {
		return nil
	}
	return e.Matrix.BlockCells()
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

// decodeSeedEntry is the inverse; an entry comes back in the layout it
// shipped in. A block's cells are the rest of the segment, exactly
// Rows·Cols bytes, and alias it: the segment is a view of a frame body
// that belongs to the decoder alone, and no kernel writes a block's
// cells. Every byte is a valid cell and zero is no entry, so only the
// shape is checked — the cell count through bits.Mul64 (sparse.FromBlock)
// and the fill against sparse.BlockShape, which every block a counter
// builds meets. Only a count entry (count set) may be a block: a
// counter's edges are compressed. A compressed entry is millions of
// mostly one-byte varints, so it is walked with a local cursor instead
// of a framing.Dec call per value. A counting pass over the index
// section finds the entry's stored entries before anything is made, so
// nothing allocated is larger than the bytes that were there to fill it;
// the arrays' structural trust is deferred to sparse.FromRaw inside the
// install.
func decodeSeedEntry(seg []byte, count bool) (metadiag.SeedEntry, error) {
	var e metadiag.SeedEntry
	d := framing.NewDec(seg)
	e.Key = d.String()
	e.Source = decodeNode(d)
	e.Sink = decodeNode(d)
	e.Rows = d.Int()
	e.Cols = d.Int()
	layout := d.Byte()
	if d.Err() == nil && (e.Rows < 0 || e.Rows > d.Remaining()) {
		// Each row costs at least a byte: its length, or a block's cells
		// (a block without columns is empty, and no block is empty).
		d.Fail("seed row count")
	}
	if d.Err() != nil {
		return e, d.Err()
	}
	b := seg[len(seg)-d.Remaining():]
	switch {
	case layout == seedCells && count:
		m, err := sparse.FromBlock(e.Rows, e.Cols, b[:len(b):len(b)])
		if err != nil {
			return e, fmt.Errorf("seed block: %w", err)
		}
		if !sparse.BlockShape(e.Rows, e.Cols, m.NNZ()) {
			return e, fmt.Errorf("seed block %dx%d holds %d entries, under ⅛ full", e.Rows, e.Cols, m.NNZ())
		}
		e.Matrix = m
		return e, nil
	case layout == seedCells:
		return e, fmt.Errorf("seed adjacency %q shipped as a block", e.Key)
	case layout != seedArrays:
		return e, fmt.Errorf("seed layout byte %d", layout)
	}

	// Counting pass: read each row's length, step over that many column
	// varints by their terminator bytes (high bit clear).
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
	}

	// Values: a strict flag byte, then nnz uvarints or nnz packed floats.
	if p == len(b) {
		return e, seedTruncated("seed value flag")
	}
	if b[p] > 1 {
		return e, fmt.Errorf("framing: bool byte %d", b[p])
	}
	ints := b[p] == 1
	values := p + 1
	width := 8
	if ints {
		width = 1
	}
	if nnz > (len(b)-values)/width {
		return e, seedTruncated("seed values")
	}

	// Compressed pass: the counting pass proved every varint of the index
	// section ends inside b, so only an overlong one can still fail.
	rowPtr, colIdx := make([]int, e.Rows+1), make([]int, nnz)
	p = 0
	for r := 0; r < e.Rows; r++ {
		n := uint64(b[p])
		p++
		if n >= 0x80 {
			n, p = uvarintAt(b, p-1)
		}
		rowPtr[r+1] = rowPtr[r] + int(n)
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
	p = values
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

// WireSeed body: the fingerprint, the seed's dimensions and schema, then
// the adjacency and count entries, each an independent length-prefixed
// segment.
func (ws *WireSeed) appendBody(b []byte) []byte {
	b = framing.AppendUvarint(b, ws.Fingerprint)
	b = framing.AppendString(b, string(ws.AnchorType))
	b = framing.AppendVarint(b, int64(ws.N1))
	b = framing.AppendVarint(b, int64(ws.N2))
	b = framing.AppendUvarint(b, uint64(len(ws.Relations)))
	for _, r := range ws.Relations {
		b = framing.AppendString(b, string(r.Name))
		b = framing.AppendString(b, string(r.Src))
		b = framing.AppendString(b, string(r.Dst))
	}
	b = framing.AppendUvarint(b, uint64(len(ws.AttrTypes)))
	for _, t := range ws.AttrTypes {
		b = framing.AppendString(b, string(t))
	}
	b = framing.AppendUvarint(b, uint64(len(ws.Adjacency)))
	b = framing.AppendUvarint(b, uint64(len(ws.Entries)))
	// A compressed segment is encoded on its own, in parallel; a block's
	// is its head here and its cells are copied once, into the body.
	segs := make([][]byte, len(ws.Adjacency)+len(ws.Entries))
	metadiag.FanOut(len(segs), func(i int) {
		if e := ws.entry(i); e.Matrix != nil {
			segs[i] = appendSeedHead(nil, e)
		} else {
			segs[i] = appendSeedEntry(nil, e)
		}
	})
	rest := 2 * binary.MaxVarintLen64 // the trace tail
	for i, seg := range segs {
		rest += binary.MaxVarintLen64 + len(seg) + len(blockCells(ws.entry(i)))
	}
	b = slices.Grow(b, rest)
	for i, seg := range segs {
		cells := blockCells(ws.entry(i))
		b = framing.AppendUvarint(b, uint64(len(seg)+len(cells)))
		b = append(append(b, seg...), cells...)
	}
	b = framing.AppendUvarint(b, ws.TraceID)
	b = framing.AppendUvarint(b, ws.SpanID)
	return b
}

// entry addresses the adjacency entries, then the count entries, as one
// run — the order their segments take on the wire.
func (ws *WireSeed) entry(i int) *metadiag.SeedEntry {
	if i < len(ws.Adjacency) {
		return &ws.Adjacency[i]
	}
	return &ws.Entries[i-len(ws.Adjacency)]
}

// seedCount reads a declared element count, failing the cursor when the
// bytes that remain cannot hold that many elements of min bytes each.
func seedCount(d *framing.Dec, min int, what string) int {
	n := d.Uvarint()
	if d.Err() == nil && n > uint64(d.Remaining()/min) {
		d.Fail(what)
	}
	if d.Err() != nil {
		return 0
	}
	return int(n)
}

func (ws *WireSeed) decodeBody(body []byte) error {
	d := framing.NewDec(body)
	ws.Fingerprint = d.Uvarint()
	ws.AnchorType = hetnet.NodeType(d.String())
	ws.N1 = d.Int()
	ws.N2 = d.Int()
	// A relation costs at least its three string lengths, an attribute
	// type one, a segment its length prefix.
	if n := seedCount(d, 3, "seed relation count"); n > 0 {
		ws.Relations = make([]metadiag.SeedRelation, n)
		for i := range ws.Relations {
			ws.Relations[i] = metadiag.SeedRelation{
				Name: hetnet.LinkType(d.String()), Src: hetnet.NodeType(d.String()), Dst: hetnet.NodeType(d.String()),
			}
		}
	}
	if n := seedCount(d, 1, "seed attribute type count"); n > 0 {
		ws.AttrTypes = make([]hetnet.NodeType, n)
		for i := range ws.AttrTypes {
			ws.AttrTypes[i] = hetnet.NodeType(d.String())
		}
	}
	adj := seedCount(d, 1, "seed adjacency count")
	n := seedCount(d, 1, "seed entry count")
	if d.Err() != nil {
		return fmt.Errorf("distrib: seed frame: %w", d.Err())
	}
	// Slice out the segments serially (cheap), decode them in parallel.
	// Raw views alias the frame body, which is ours alone — ReadFrame
	// allocates a fresh body per frame.
	segs := make([][]byte, adj+n)
	for i := range segs {
		segs[i] = d.Raw()
	}
	ws.TraceID = d.Uvarint()
	ws.SpanID = d.Uvarint()
	if err := finish(d, "seed"); err != nil {
		return err
	}
	if adj > 0 {
		ws.Adjacency = make([]metadiag.SeedEntry, adj)
	}
	if n > 0 {
		ws.Entries = make([]metadiag.SeedEntry, n)
	}
	errs := make([]error, len(segs))
	metadiag.FanOut(len(segs), func(i int) {
		*ws.entry(i), errs[i] = decodeSeedEntry(segs[i], i >= adj)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("distrib: seed entry %d: %w", i, err)
		}
	}
	return nil
}
