package distrib

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/metadiag"
)

// TestColumnarEmptyRoundTrip pins the degenerate shapes the columnar
// codec must distinguish from corruption: empty vote batches, a Done
// with no weights, a job whose optional columns are all empty.
func TestColumnarEmptyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		enc, dec Payload
	}{
		{"votes", &Votes{Shard: 3}, &Votes{}},
		{"done", &Done{Shard: 2}, &Done{}},
		{"job", &Job{Shard: 0, Budget: 1}, &Job{}},
	} {
		body := tc.enc.appendBody(nil)
		if err := tc.dec.decodeBody(body); err != nil {
			t.Errorf("%s: empty round-trip rejected: %v", tc.name, err)
		}
	}
}

// fresh returns a zero payload of p's type to decode into.
func fresh(p Payload) Payload {
	return reflect.New(reflect.TypeOf(p).Elem()).Interface().(Payload)
}

// TestColumnarRejectsTrailingBytes: every frame decoder must reject a
// body with unconsumed bytes — a length desync must not pass as a
// shorter valid frame.
func TestColumnarRejectsTrailingBytes(t *testing.T) {
	for _, tc := range goldenFrames(t) {
		body := tc.payload.appendBody(nil)
		if err := fresh(tc.payload).decodeBody(body); err != nil {
			t.Fatalf("%s: pristine body rejected: %v", tc.name, err)
		}
		if err := fresh(tc.payload).decodeBody(append(body, 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", tc.name)
		}
	}
}

// TestColumnarTruncationNeverPanics walks every prefix of each frame's
// body through its decoder: truncation must surface as an error, never a
// panic or a silent success.
func TestColumnarTruncationNeverPanics(t *testing.T) {
	for _, tc := range goldenFrames(t) {
		body := tc.payload.appendBody(nil)
		for cut := 0; cut < len(body); cut++ {
			if err := fresh(tc.payload).decodeBody(body[:cut:cut]); err == nil {
				t.Errorf("%s: truncation at %d/%d accepted", tc.name, cut, len(body))
			}
		}
	}
}

// TestVotesRejectsUnknownFlags: the vote flag byte has two defined bits
// (Queried, Fixed); any other bit set must be rejected, reserving the
// space for future versions instead of silently dropping it.
func TestVotesRejectsUnknownFlags(t *testing.T) {
	body := (&Votes{Shard: 1, Votes: []Vote{{I: 1, J: 2, Label: 1, Score: 0.5}}}).appendBody(nil)
	// The flag column is the last byte of a one-vote body.
	body[len(body)-1] = 4
	var v Votes
	if err := v.decodeBody(body); err == nil || !strings.Contains(err.Error(), "vote flags") {
		t.Fatalf("flag byte 4: got %v, want vote-flags error", err)
	}
}

// TestSeedEntryRejectsHugeCounts: claimed row counts far beyond the
// actual bytes must fail on the bound check, before any allocation
// sized by the claim.
func TestSeedEntryRejectsHugeCounts(t *testing.T) {
	var b []byte
	b = framing.AppendString(b, "k")
	b = framing.AppendVarint(b, 1<<40) // rows
	b = framing.AppendVarint(b, 1)     // cols
	if _, err := decodeSeedEntry(b); err == nil {
		t.Fatal("absurd row count accepted")
	}
	b = nil
	b = framing.AppendString(b, "k")
	b = framing.AppendVarint(b, 1) // rows
	b = framing.AppendVarint(b, 1) // cols
	b = framing.AppendUvarint(b, 1<<40)
	if _, err := decodeSeedEntry(b); err == nil {
		t.Fatal("absurd row length accepted")
	}
}

// TestSeedShipsNothingInSharedProcess: loopback workers share the
// coordinator's process, and buildSeed pre-installs the warm counter
// into that process's seed cache — so every connection's offer must hit
// and the run must ship zero seed bytes, exactly like the in-process
// facade's fork.
func TestSeedShipsNothingInSharedProcess(t *testing.T) {
	seedMu.Lock()
	seedCache = map[uint64]*seedEntry{}
	seedLRU = nil
	seedMu.Unlock()
	fx := newDistFixture(t, 3, 0)
	coord := &Coordinator{Transport: Loopback{}, Opts: Options{Train: fx.train, Workers: 3}}
	res, m, err := coord.Run(fx.pair, fx.plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAlignment(t, res, fx.ref, fx.plan)
	if m.SeedShips != 0 || m.SeedBytes != 0 {
		t.Errorf("seed shipped %d times (%d bytes) across 3 loopback connections, want 0 (pre-installed)", m.SeedShips, m.SeedBytes)
	}
}

// TestSeedShipInstallAck drives the miss path by hand: a fresh worker
// process (simulated by evicting the cache after buildSeed's
// pre-install) must receive the shipped seed and confirm the completed
// install with its second Hello before handshake returns; a second
// connection into the same process must then hit without a ship.
func TestSeedShipInstallAck(t *testing.T) {
	pair := fixturePair(t)
	fp, body, _, err := buildSeed(pair, nil, TrainConfig{FeatureSet: FeaturesFull}, 0)
	if err != nil {
		t.Fatal(err)
	}
	resetSeedCache()
	c1, _ := workerDial(t)
	n, err := handshake(c1, fp, body)
	if err != nil {
		t.Fatal(err)
	}
	if n < int64(len(body)) {
		t.Fatalf("fresh cache: %d seed bytes, want a full ship of >= %d bytes", n, len(body))
	}
	if seedCacheGet(fp) == nil {
		t.Fatal("seed not resident when the handshake returned")
	}
	c2, _ := workerDial(t)
	if n, err := handshake(c2, fp, body); err != nil || n != 0 {
		t.Fatalf("warm cache: %d seed bytes, err %v; want a hit", n, err)
	}
}

// TestSeedEntryRoundTrip: CSR content survives the delta/uvarint
// packing exactly, for both the integer fast path and the float
// fallback.
func TestSeedEntryRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    metadiag.SeedEntry
	}{
		{"ints", metadiag.SeedEntry{Key: "u->p", Rows: 3, Cols: 4,
			RowPtr: []int{0, 2, 2, 3}, ColIdx: []int{0, 3, 1}, Val: []float64{1, 5, 1 << 40}}},
		{"floats", metadiag.SeedEntry{Key: "u->p", Rows: 1, Cols: 2,
			RowPtr: []int{0, 2}, ColIdx: []int{0, 1}, Val: []float64{0.5, -3}}},
		{"empty", metadiag.SeedEntry{Key: "", Rows: 2, Cols: 2,
			RowPtr: []int{0, 0, 0}, ColIdx: nil, Val: nil}},
	} {
		got, err := decodeSeedEntry(appendSeedEntry(nil, &tc.e))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Key != tc.e.Key || got.Rows != tc.e.Rows || got.Cols != tc.e.Cols {
			t.Errorf("%s: header mangled: %+v", tc.name, got)
		}
		for i, v := range tc.e.Val {
			if got.Val[i] != v {
				t.Errorf("%s: val[%d] = %v, want %v", tc.name, i, got.Val[i], v)
			}
		}
		for i, c := range tc.e.ColIdx {
			if got.ColIdx[i] != c {
				t.Errorf("%s: colIdx[%d] = %d, want %d", tc.name, i, got.ColIdx[i], c)
			}
		}
		for i, p := range tc.e.RowPtr {
			if got.RowPtr[i] != p {
				t.Errorf("%s: rowPtr[%d] = %d, want %d", tc.name, i, got.RowPtr[i], p)
			}
		}
	}
}

// coldPayload returns a zero payload for the control frame types, nil
// for the rest.
func coldPayload(typ FrameType) Payload {
	switch typ {
	case FrameHello:
		return &Hello{}
	case FrameQuery:
		return &Query{}
	case FrameAnswer:
		return &Answer{}
	case FrameError:
		return &JobError{}
	}
	return nil
}

// FuzzColdFrames: the control-frame decoders read bytes a socket
// delivered. On any input they must not panic and must not allocate more
// than a fixed multiple of what they were given; and whatever they accept
// they must re-encode canonically — decode → encode → decode gives the
// same value and the same bytes again (the input itself may differ: a
// varint has non-minimal spellings).
func FuzzColdFrames(f *testing.F) {
	for _, tc := range goldenFrames(f) {
		if coldPayload(tc.typ) != nil {
			f.Add(uint8(tc.typ), tc.payload.appendBody(nil))
		}
	}
	f.Add(uint8(FrameHello), []byte{})
	// The worker's Hello that confirms an install names the seed it holds.
	f.Add(uint8(FrameHello), (&Hello{Role: "worker", SeedFP: 0x1badd00dcafef00d}).appendBody(nil))
	// A NaN label must survive the round trip as NaN, which DeepEqual
	// cannot see; seeding it runs bothNaN on every plain test run.
	f.Add(uint8(FrameAnswer), (&Answer{Seq: 3, Label: math.NaN()}).appendBody(nil))
	f.Fuzz(func(t *testing.T, typ uint8, data []byte) {
		first := coldPayload(FrameType(typ))
		if first == nil {
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := first.decodeBody(data)
		runtime.ReadMemStats(&after)
		// A decoded string costs its bytes once and an error a wrapped
		// message; the constant absorbs what the fuzz engine's own
		// goroutines allocate meanwhile (TotalAlloc is process-wide).
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+1<<16); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		enc := first.appendBody(nil)
		second := coldPayload(FrameType(typ))
		if err := second.decodeBody(enc); err != nil {
			t.Fatalf("re-encoded body rejected: %v", err)
		}
		if !reflect.DeepEqual(first, second) && !bothNaN(first, second) {
			t.Fatalf("decode → encode → decode moved the value: %+v, then %+v", first, second)
		}
		if again := second.appendBody(nil); !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point: %x, then %x", enc, again)
		}
	})
}

// bothNaN excuses the one value DeepEqual cannot match to itself: an
// Answer whose label is NaN on both sides.
func bothNaN(a, b Payload) bool {
	x, ok := a.(*Answer)
	y, _ := b.(*Answer)
	return ok && x.Seq == y.Seq && math.IsNaN(x.Label) && math.IsNaN(y.Label)
}
