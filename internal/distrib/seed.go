// Warm-counter seed shipping. A v4 run re-derived the expensive
// anchor-free count layer (the attribute meta-path products) from
// scratch on every worker for every shard — the dominant cost of the
// distributed gap. A v5 coordinator exports that layer once
// (metadiag.ExportSeed, from the facade's already-warm base counter when
// available), ships it once per connection, and every job after that is
// a few kilobytes of pool indices: the worker forks its seeded counter
// exactly like the in-process PartitionedAligner forks its base, so the
// votes are bit-identical by construction.
//
// The per-connection negotiation is SeedRef → CacheAck(Shard −1) →
// [Seed], before the first job: workers cache installed seeds process-
// wide under the seed fingerprint, so a redial (or a second connection
// of the same run) answers the SeedRef with a hit and ships nothing.
package distrib

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
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
// seeded) and serves every seeded job of any shard from forks of that
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
// networks, the anchor type, and the feature set whose library the
// entries cover. The count matrices themselves are a deterministic
// function of those inputs, so they stay out of the hash — which is
// what lets a worker that derived the layer locally (or got it from an
// earlier run of the same pair) answer a SeedRef with a hit. Never
// returns 0 (the "unseeded" sentinel).
func seedFingerprint(g1, g2 *WireNetwork, anchorType, featureSet string) uint64 {
	f := &fingerprintHasher{h: fnv.New64a()}
	f.network(g1)
	f.network(g2)
	f.str(anchorType)
	f.str(featureSet)
	if s := f.h.Sum64(); s != 0 {
		return s
	}
	return 1
}

// buildSeed exports the pair's warm-counter seed and pre-encodes its
// frame body once per run. base, when non-nil, must be a counter over
// pair (the facade hands over its own, already warm from planning); nil
// cold-counts — still once per run, not once per shard×worker.
func buildSeed(pair *hetnet.AlignedPair, base *metadiag.Counter, cfg TrainConfig, traceID uint64) (fp uint64, body []byte, err error) {
	feats, err := ResolveFeatures(cfg.FeatureSet)
	if err != nil {
		return 0, nil, err
	}
	if base == nil {
		if base, err = metadiag.NewCounter(pair); err != nil {
			return 0, nil, err
		}
	}
	seed, err := base.ExportSeed(feats)
	if err != nil {
		return 0, nil, err
	}
	ws := &WireSeed{
		AnchorType: string(pair.AnchorType),
		G1:         EncodeNetwork(pair.G1),
		G2:         EncodeNetwork(pair.G2),
		Entries:    seed.Entries,
		// The body is encoded once per run, before any connection exists,
		// so the seed carries the run's trace ID with no per-negotiation
		// span: the worker correlates its install log by trace ID.
		TraceID: traceID,
	}
	ws.Fingerprint = seedFingerprint(&ws.G1, &ws.G2, ws.AnchorType, cfg.FeatureSet)
	// Pre-install the warm counter into this process's seed cache:
	// workers sharing the coordinator's process (loopback, in-process
	// fallback) then answer every SeedRef with a hit and fork the very
	// counter the coordinator already holds — zero bytes shipped, zero
	// re-derivation, and exactly the fork the in-process facade performs.
	// Remote workers are unaffected; the entry is two pointers, not a
	// copy.
	seedCachePut(ws.Fingerprint, &seedEntry{pair: pair, counter: base})
	return ws.Fingerprint, ws.appendBody(nil), nil
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
	// proves the bytes left this side; decoding and installing a large
	// seed takes seconds, and if the seed gate opened on write-completion
	// the follower connections would negotiate inside that window, miss
	// the still-empty cache, and re-ship — the exact race the gate
	// exists to close. A failed install surfaces here as the worker's
	// Error frame (ReadExpect converts it), burning the connection
	// during negotiation instead of poisoning the first job stream.
	if err := ReadExpect(conn, FrameCacheAck, &ack); err != nil {
		return cw.n, true, err
	}
	if ack.Fingerprint != fp || !ack.Hit {
		return cw.n, true, fmt.Errorf("distrib: seed install ack %016x hit=%v, want %016x hit", ack.Fingerprint, ack.Hit, fp)
	}
	return cw.n, true, nil
}

// seedGate serializes a run's FIRST seed negotiation. Without it, N
// concurrent fresh dials all offer the seed before any worker has
// finished installing it, and every one misses and ships its own copy
// — N×hundreds-of-MB for workers that share a process (loopback, many
// connections to one TCP worker). With it, the first connection
// negotiates alone; by the time the rest proceed, a shared-process
// worker answers their SeedRef with a hit. Per-process workers
// (subprocess transport) still ship once each, concurrently, after the
// gate opens. Correctness never depends on the dedup: if the first
// negotiation fails, followers simply negotiate on their own.
type seedGate struct {
	mu sync.Mutex
	ch chan struct{}
}

// wait claims the gate: the first caller proceeds immediately and must
// call the returned release when its negotiation finishes (success or
// not); later callers block until then and get a nil release. The
// first negotiation runs under a connection deadline, so the gate
// cannot wedge its followers.
func (g *seedGate) wait() (release func()) {
	g.mu.Lock()
	if g.ch == nil {
		ch := make(chan struct{})
		g.ch = ch
		g.mu.Unlock()
		return func() { close(ch) }
	}
	ch := g.ch
	g.mu.Unlock()
	<-ch
	return nil
}

// NewSeededJob packages a plan part as a seeded wire job: original
// indices throughout, no networks, no inverse maps — the worker
// resolves the pair and counter from the connection's seed.
func NewSeededJob(pair *hetnet.AlignedPair, part *partition.Part, cfg TrainConfig, seedFP uint64) *Job {
	j := &Job{
		Shard:      part.Index,
		SeedFP:     seedFP,
		AnchorType: string(pair.AnchorType),
		TrainPos:   part.TrainPos,
		Candidates: part.Candidates,
		Prelabeled: WireLabels(part.Prelabeled),
		Budget:     part.Budget,
	}
	return j.setTrain(cfg)
}

// seededPart validates a seeded job against the seed's pair and builds
// its part. The job must not carry what the seed already provides.
func (j *Job) seededPart(pair *hetnet.AlignedPair) (*partition.Part, error) {
	if len(j.InvUsers1) != 0 || len(j.InvUsers2) != 0 {
		return nil, fmt.Errorf("distrib: seeded job shard %d carries inverse maps", j.Shard)
	}
	if j.AnchorType != "" && j.AnchorType != string(pair.AnchorType) {
		return nil, fmt.Errorf("distrib: seeded job shard %d anchor type %q, seed has %q", j.Shard, j.AnchorType, pair.AnchorType)
	}
	n1 := pair.G1.NodeCount(pair.AnchorType)
	n2 := pair.G2.NodeCount(pair.AnchorType)
	for _, a := range j.TrainPos {
		if a.I < 0 || a.I >= n1 || a.J < 0 || a.J >= n2 {
			return nil, fmt.Errorf("distrib: seeded job shard %d: anchor (%d,%d) out of range", j.Shard, a.I, a.J)
		}
	}
	for _, c := range j.Candidates {
		if c.I < 0 || c.I >= n1 || c.J < 0 || c.J >= n2 {
			return nil, fmt.Errorf("distrib: seeded job shard %d: candidate (%d,%d) out of range", j.Shard, c.I, c.J)
		}
	}
	for _, l := range j.Prelabeled {
		if l.I < 0 || int(l.I) >= n1 || l.J < 0 || int(l.J) >= n2 {
			return nil, fmt.Errorf("distrib: seeded job shard %d: prelabel (%d,%d) out of range", j.Shard, l.I, l.J)
		}
	}
	return &partition.Part{
		Index:      j.Shard,
		TrainPos:   j.TrainPos,
		Candidates: j.Candidates,
		Budget:     j.Budget,
		Prelabeled: partLabels(j.Prelabeled),
	}, nil
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
// process, and the whole point is to install once.
var (
	seedMu    sync.Mutex
	seedLRU   []uint64
	seedCache = map[uint64]*seedEntry{}
)

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
		old := seedLRU[0]
		seedLRU = seedLRU[1:]
		delete(seedCache, old)
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
	ints := true
	for _, v := range e.Val {
		if v != math.Trunc(v) || v < 0 || v >= 1<<53 {
			ints = false
			break
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

// decodeSeedEntry is the inverse; structural trust is deferred to
// sparse.FromRaw inside SeedInto (shape, monotone rowPtr, in-range
// strictly-increasing columns), so only allocation bounds are enforced
// here.
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
	rowPtr := make([]int, e.Rows+1)
	var colIdx []int
	nnz := 0
	for r := 0; r < e.Rows && d.Err() == nil; r++ {
		n := d.Uvarint()
		if n > uint64(d.Remaining()) {
			d.Fail("seed row length")
			break
		}
		prev := 0
		for k := uint64(0); k < n; k++ {
			prev += int(d.Uvarint())
			colIdx = append(colIdx, prev)
		}
		nnz += int(n)
		rowPtr[r+1] = nnz
	}
	ints := d.Bool()
	if d.Err() != nil {
		return e, d.Err()
	}
	val := make([]float64, nnz)
	if ints {
		for k := range val {
			val[k] = float64(d.Uvarint())
		}
	} else {
		for k := range val {
			val[k] = d.Float64()
		}
	}
	e.RowPtr, e.ColIdx, e.Val = rowPtr, colIdx, val
	if err := d.Done(); err != nil {
		return e, err
	}
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
	if err := d.Done(); err != nil {
		return fmt.Errorf("distrib: seed frame: %w", err)
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
