// The delta-sync wire protocol. One connection, client-driven:
//
//	client → Hello   (wants delta?, local artifact fingerprint, entry count)
//	server → Summary (target fingerprint, entry count, full artifact bytes)
//	                 — equal fingerprints end the exchange here.
//	loop:
//	client → Cells   (its IBLT at the current ladder level)
//	server → Patch   (fingerprints to delete + entries to add)   → done
//	       | Grow    (sketch undecodable; send the next level up)
//	       | Full    (the whole artifact: diff or sketch crossed the
//	                  cutover threshold, or the ladder ran out)
//
// Every frame rides the shared framing codec with CRC-32C trailers, so
// wire corruption surfaces as a detected error; the client responds to
// ANY delta-path failure — corrupt frame, protocol violation, a patch
// that does not reassemble to the target fingerprint — by redialing
// and pulling the full artifact. Delta sync can therefore only ever
// save bytes, never serve a wrong artifact.
package setsync

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// codec is the setsync instance of the shared framing discipline.
// Checksummed: sync peers cross real networks, and an undetected
// flipped byte in a patch would reassemble into a silently different
// artifact (caught later by the fingerprint check, but detected here
// with a much better error).
//
// Version history: 1 — PR 10. 2 — PR 24: the meta and model entry
// bodies are snapshot record-codec bytes (were gob) and a full transfer
// is a v3 artifact, so a v1 peer is refused at the hello instead of
// after a reassembly that cannot match. 3 — the model entry body is the
// v5 shard table alone (no primary weight vector) and a full transfer
// is a v5 artifact.
var codec = framing.Codec{Magic: [2]byte{'S', 'Y'}, Version: 3, MaxFrame: 1 << 30, Checksum: true}

// ErrVersionMismatch is the shared framing sentinel, re-exported.
var ErrVersionMismatch = framing.ErrVersionMismatch

// Frame types.
const (
	tHello byte = iota + 1
	tSummary
	tCells
	tPatch
	tGrow
	tFull
)

// Options tune the client side of a sync.
type Options struct {
	// Timeout, when set, is applied as an absolute deadline on each
	// dialed connection.
	Timeout time.Duration
}

const (
	// cutover is the give-up fraction: when the sketch (or the decoded
	// patch) would cost more than cutover × the full artifact, the server
	// ships the artifact instead.
	cutover = 0.25
	// maxLevel caps the sketch ladder (level ℓ has 128·2^ℓ cells; the
	// client starts at level 0); 13 reaches the maxCells cap.
	maxLevel = 13
)

// cellsForLevel is the sketch ladder: ×2 cells per level, capped. The
// doubling is deliberately fine-grained — a retry that overshoots by
// 4× wastes most of what delta sync is supposed to save.
func cellsForLevel(level int) int {
	m := 128 << level
	if m > maxCells || m <= 0 {
		return maxCells
	}
	return m
}

// cellBytesEstimate approximates a level's wire cost for cutover
// decisions (count varint ≈ 1 byte + packed uint64 + uint32).
func cellBytesEstimate(m int) int { return m * 14 }

// growTarget is the server side of the ladder: the smallest ladder
// size STRICTLY larger than the client's current table, or 0 when the
// ladder is exhausted (the client is already at maxCells, so a Grow
// could only elicit the same sketch again).
func growTarget(clientCells int) int {
	next := cellsForLevel(0)
	for next <= clientCells && next < maxCells {
		next *= 2
	}
	if next <= clientCells {
		return 0
	}
	return next
}

// Stats describes how a Pull went, for logs and metrics.
type Stats struct {
	// Mode is "none" (already current), "delta", or "full".
	Mode string
	// Attempts counts sketch levels offered before resolution.
	Attempts int
	// TxBytes/RxBytes are the client's wire bytes, all connections.
	TxBytes, RxBytes int64
	// FullBytes is the full artifact size the server advertised.
	FullBytes int64
	// TargetFP is the artifact fingerprint synced to.
	TargetFP uint64
	// Added/Removed count patched entries (delta mode only).
	Added, Removed int
	// Fallback records why the delta path was abandoned, if it was.
	Fallback string
}

// WireBytes is the total reconciliation traffic.
func (s Stats) WireBytes() int64 { return s.TxBytes + s.RxBytes }

// Serve answers one sync connection with the given snapshot. The
// caller owns the connection lifecycle (deadlines, close) and the
// accept loop; Serve returns when the exchange completes or fails. No
// Options field applies to the server side.
func Serve(conn io.ReadWriter, snap *snapshot.Snapshot, _ Options) error {
	if snap == nil {
		return fmt.Errorf("setsync: serving nil snapshot")
	}
	full, fp, err := snap.Encode()
	if err != nil {
		return err
	}
	entries, decompErr := Decompose(snap)

	typ, body, err := codec.ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("setsync: read hello: %w", err)
	}
	if typ != tHello {
		return fmt.Errorf("setsync: frame type %d where hello belongs", typ)
	}
	d := framing.NewDec(body)
	wantDelta := d.Bool()
	haveFP := d.Uint64()
	d.Uvarint() // client entry count: informational
	if err := d.Done(); err != nil {
		return fmt.Errorf("setsync: hello body: %w", err)
	}

	sum := framing.AppendUint64(nil, fp)
	sum = framing.AppendUvarint(sum, uint64(len(entries)))
	sum = framing.AppendUvarint(sum, uint64(len(full)))
	if err := codec.WriteFrame(conn, tSummary, sum); err != nil {
		return err
	}
	if wantDelta && haveFP == fp {
		return nil // client is already current; Summary told it so
	}
	if !wantDelta || decompErr != nil {
		return codec.WriteFrame(conn, tFull, full)
	}

	byFP := make(map[uint64]Entry, len(entries))
	for _, e := range entries {
		byFP[e.FP] = e
	}
	attempts := 0
	for {
		typ, body, err := codec.ReadFrame(conn)
		if err != nil {
			return fmt.Errorf("setsync: read cells: %w", err)
		}
		if typ != tCells {
			return fmt.Errorf("setsync: frame type %d where cells belong", typ)
		}
		clientTable, err := decodeTable(body)
		if err != nil {
			return fmt.Errorf("setsync: %w", err)
		}
		attempts++
		mine := NewTable(len(clientTable.Cells), clientTable.K, clientTable.Seed)
		for _, e := range entries {
			mine.Insert(e.FP)
		}
		diff, err := mine.Subtract(clientTable)
		if err != nil {
			return err
		}
		patch, ok := buildPatch(diff, byFP)
		if ok && len(patch) <= int(cutover*float64(len(full))) {
			return codec.WriteFrame(conn, tPatch, patch)
		}
		// Peeling failed or the patch is not worth it. Grow while a
		// strictly larger sketch exists and is still cheaper than the
		// cutover allows; otherwise ship the artifact. Asking a client
		// already at the ladder's maxCells cap to grow would just re-buy
		// an identically sized sketch every round until the attempt
		// budget ran out.
		next := growTarget(len(clientTable.Cells))
		if ok || attempts > maxLevel || next == 0 ||
			cellBytesEstimate(next) > int(cutover*float64(len(full))) {
			return codec.WriteFrame(conn, tFull, full)
		}
		if err := codec.WriteFrame(conn, tGrow, nil); err != nil {
			return err
		}
	}
}

// buildPatch peels the subtracted table and encodes the patch frame:
// the client-only fingerprints to delete, then the server-only entries
// to add. ok is false when the sketch did not decode or decoded to
// keys the server does not hold (a garbage peel).
func buildPatch(diff *Table, byFP map[uint64]Entry) ([]byte, bool) {
	plus, minus, ok := diff.Decode()
	if !ok {
		return nil, false
	}
	body := framing.AppendUint64s(nil, minus)
	body = framing.AppendUvarint(body, uint64(len(plus)))
	for _, fp := range plus {
		e, found := byFP[fp]
		if !found {
			return nil, false
		}
		body = append(body, e.Kind)
		body = framing.AppendBytes(body, e.Body)
	}
	return body, true
}

// Dialer opens a fresh connection to the sync peer. Pull dials once
// for the delta attempt and, if that fails in any way, once more for
// the full pull — a failed delta leaves the first connection in an
// unknowable protocol state, so the fallback never reuses it.
type Dialer func() (net.Conn, error)

// Pull reconciles the local snapshot (nil when there is none) against
// the peer's and returns the peer's artifact. The returned snapshot is
// always fingerprint-verified against what the peer advertised; Stats
// records the mode and byte counts. have is returned unchanged when
// the peer already serves the same artifact.
func Pull(dial Dialer, have *snapshot.Snapshot, opts Options) (*snapshot.Snapshot, Stats, error) {
	var stats Stats
	if have != nil {
		snap, err := pullDelta(dial, have, opts, &stats)
		if err == nil {
			return snap, stats, nil
		}
		stats.Fallback = err.Error()
	} else {
		stats.Fallback = "no local snapshot"
	}
	snap, err := pullFull(dial, opts, &stats)
	if err != nil {
		return nil, stats, err
	}
	stats.Mode = "full"
	return snap, stats, nil
}

// countRW counts wire bytes through an io.ReadWriter.
type countRW struct {
	rw     io.ReadWriter
	tx, rx *int64
}

func (c countRW) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	*c.rx += int64(n)
	return n, err
}

func (c countRW) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	*c.tx += int64(n)
	return n, err
}

func dialCounted(dial Dialer, opts Options, stats *Stats) (countRW, func(), error) {
	conn, err := dial()
	if err != nil {
		return countRW{}, nil, fmt.Errorf("setsync: dial: %w", err)
	}
	if opts.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(opts.Timeout))
	}
	return countRW{rw: conn, tx: &stats.TxBytes, rx: &stats.RxBytes}, func() { conn.Close() }, nil
}

func writeHello(conn io.Writer, wantDelta bool, haveFP uint64, haveCount int) error {
	body := framing.AppendBool(nil, wantDelta)
	body = framing.AppendUint64(body, haveFP)
	body = framing.AppendUvarint(body, uint64(haveCount))
	return codec.WriteFrame(conn, tHello, body)
}

func readSummary(conn io.Reader) (fp uint64, count, fullBytes int64, err error) {
	typ, body, err := codec.ReadFrame(conn)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("setsync: read summary: %w", err)
	}
	if typ != tSummary {
		return 0, 0, 0, fmt.Errorf("setsync: frame type %d where summary belongs", typ)
	}
	d := framing.NewDec(body)
	fp = d.Uint64()
	count = int64(d.Uvarint())
	fullBytes = int64(d.Uvarint())
	if err := d.Done(); err != nil {
		return 0, 0, 0, fmt.Errorf("setsync: summary body: %w", err)
	}
	return fp, count, fullBytes, nil
}

// verifyArtifact decodes raw bytes and checks them against the
// advertised fingerprint: what was decoded must encode to exactly the
// artifact the peer promised.
func verifyArtifact(raw []byte, wantFP uint64) (*snapshot.Snapshot, error) {
	snap, err := snapshot.Read(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	got, err := snap.Fingerprint()
	if err != nil {
		return nil, err
	}
	if got != wantFP {
		return nil, fmt.Errorf("setsync: full artifact fingerprints %016x, peer advertised %016x", got, wantFP)
	}
	return snap, nil
}

func pullDelta(dial Dialer, have *snapshot.Snapshot, opts Options, stats *Stats) (*snapshot.Snapshot, error) {
	entries, err := Decompose(have)
	if err != nil {
		return nil, err
	}
	haveFP, err := have.Fingerprint()
	if err != nil {
		return nil, err
	}
	conn, closeConn, err := dialCounted(dial, opts, stats)
	if err != nil {
		return nil, err
	}
	defer closeConn()
	if err := writeHello(conn, true, haveFP, len(entries)); err != nil {
		return nil, err
	}
	targetFP, _, fullBytes, err := readSummary(conn)
	if err != nil {
		return nil, err
	}
	stats.TargetFP = targetFP
	stats.FullBytes = fullBytes
	if targetFP == haveFP {
		stats.Mode = "none"
		return have, nil
	}
	for level := 0; ; level++ {
		if stats.Attempts > maxLevel {
			return nil, fmt.Errorf("setsync: peer kept growing past level %d", maxLevel)
		}
		stats.Attempts++
		// Reseed per level: a level that fails only because its seed
		// placed the diff unluckily should not drag that seed into the
		// retry. Deriving from the fingerprints keeps it deterministic.
		seed := splitmix64(haveFP ^ targetFP ^ uint64(level)<<56)
		table := NewTable(cellsForLevel(level), numHashes, seed)
		for _, e := range entries {
			table.Insert(e.FP)
		}
		if err := codec.WriteFrame(conn, tCells, table.appendTo(nil)); err != nil {
			return nil, err
		}
		typ, body, err := codec.ReadFrame(conn)
		if err != nil {
			return nil, fmt.Errorf("setsync: read server reply: %w", err)
		}
		switch typ {
		case tGrow:
			continue
		case tFull:
			// Server-initiated fallback on the same connection: the diff
			// (or the sketch) crossed the cutover.
			snap, err := verifyArtifact(body, targetFP)
			if err != nil {
				return nil, err
			}
			stats.Mode = "full"
			return snap, nil
		case tPatch:
			snap, added, removed, err := applyPatch(entries, body, targetFP)
			if err != nil {
				return nil, err
			}
			stats.Mode = "delta"
			stats.Added, stats.Removed = added, removed
			return snap, nil
		default:
			return nil, fmt.Errorf("setsync: unexpected frame type %d after cells", typ)
		}
	}
}

// applyPatch edits the local entry set per the patch frame and
// reassembles, verifying the result against the target fingerprint —
// the end-to-end check that subsumes every protocol-level one.
func applyPatch(local []Entry, body []byte, targetFP uint64) (*snapshot.Snapshot, int, int, error) {
	d := framing.NewDec(body)
	dels := d.Uint64s()
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, 0, 0, err
	}
	// Each added entry costs at least 2 bytes (kind + empty-body count).
	if n > uint64(d.Remaining())/2 {
		return nil, 0, 0, fmt.Errorf("setsync: patch claims %d entries, body holds %d bytes", n, d.Remaining())
	}
	byFP := make(map[uint64]Entry, len(local))
	for _, e := range local {
		byFP[e.FP] = e
	}
	for _, fp := range dels {
		if _, ok := byFP[fp]; !ok {
			return nil, 0, 0, fmt.Errorf("setsync: patch deletes %016x which is not held locally — sketch decoded to garbage", fp)
		}
		delete(byFP, fp)
	}
	for i := uint64(0); i < n; i++ {
		kind := d.Byte()
		entryBody := d.Bytes()
		if err := d.Err(); err != nil {
			return nil, 0, 0, err
		}
		e := entryOf(kind, entryBody)
		byFP[e.FP] = e
	}
	if err := d.Done(); err != nil {
		return nil, 0, 0, err
	}
	merged := make([]Entry, 0, len(byFP))
	for _, e := range byFP {
		merged = append(merged, e)
	}
	snap, err := Reassemble(merged)
	if err != nil {
		return nil, 0, 0, err
	}
	gotFP, err := snap.Fingerprint()
	if err != nil {
		return nil, 0, 0, err
	}
	if gotFP != targetFP {
		return nil, 0, 0, fmt.Errorf("setsync: patched artifact fingerprints %016x, peer advertised %016x", gotFP, targetFP)
	}
	return snap, int(n), len(dels), nil
}

func pullFull(dial Dialer, opts Options, stats *Stats) (*snapshot.Snapshot, error) {
	conn, closeConn, err := dialCounted(dial, opts, stats)
	if err != nil {
		return nil, err
	}
	defer closeConn()
	if err := writeHello(conn, false, 0, 0); err != nil {
		return nil, err
	}
	targetFP, _, fullBytes, err := readSummary(conn)
	if err != nil {
		return nil, err
	}
	stats.TargetFP = targetFP
	stats.FullBytes = fullBytes
	typ, body, err := codec.ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("setsync: read full artifact: %w", err)
	}
	if typ != tFull {
		return nil, fmt.Errorf("setsync: frame type %d where the full artifact belongs", typ)
	}
	return verifyArtifact(body, targetFP)
}
