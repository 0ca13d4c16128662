package framing

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

var testCodec = Codec{Magic: [2]byte{'T', 'C'}, Version: 3, MaxFrame: 1 << 16}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 1000)}
	for i, body := range bodies {
		if err := testCodec.WriteFrame(&buf, byte(i+1), body); err != nil {
			t.Fatal(err)
		}
	}
	for i, body := range bodies {
		typ, got, err := testCodec.ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Errorf("frame %d: type %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, body) {
			t.Errorf("frame %d: body %q, want %q", i, got, body)
		}
	}
	if _, _, err := testCodec.ReadFrame(&buf); err != io.EOF {
		t.Errorf("drained stream: err %v, want io.EOF", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := testCodec.WriteFrame(&buf, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[6] = testCodec.Version + 1
	_, _, err := testCodec.ReadFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("got %v, want ErrVersionMismatch", err)
	}
	// Both versions must appear in the message so the operator knows
	// which side is stale.
	if !strings.Contains(err.Error(), "got 4") || !strings.Contains(err.Error(), "want 3") {
		t.Errorf("unhelpful mismatch message: %v", err)
	}
}

// A header error must still consume the frame's declared body so a
// fully synchronous peer (net.Pipe) is never left blocked mid-Write.
func TestHeaderErrorDrainsBody(t *testing.T) {
	var buf bytes.Buffer
	if err := testCodec.WriteFrame(&buf, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	bad[4] = 'X' // corrupt the magic of frame one
	if err := testCodec.WriteFrame(&buf, 2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	if _, _, err := testCodec.ReadFrame(r); err == nil {
		t.Fatal("bad magic accepted")
	}
	typ, body, err := testCodec.ReadFrame(r)
	if err != nil || typ != 2 || string(body) != "second" {
		t.Fatalf("frame after a header error: typ=%d body=%q err=%v", typ, body, err)
	}
}

func TestRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := testCodec.WriteFrame(&buf, 1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	huge := append([]byte(nil), good...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := testCodec.ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Error("oversized length accepted")
	}

	tiny := append([]byte(nil), good...)
	tiny[0], tiny[1], tiny[2], tiny[3] = 0, 0, 0, 3 // below the 4 header bytes
	if _, _, err := testCodec.ReadFrame(bytes.NewReader(tiny)); err == nil {
		t.Error("undersized length accepted")
	}

	if _, _, err := testCodec.ReadFrame(bytes.NewReader(good[:len(good)-2])); err == nil {
		t.Error("truncated body accepted")
	}

	if _, _, err := testCodec.ReadFrame(bytes.NewReader(good[:2])); err == nil || err == io.EOF {
		t.Error("truncated length prefix should be a non-EOF error")
	}

	if _, _, err := testCodec.ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Error("empty stream should be io.EOF")
	}
}

func TestWriterRejectsOversizedBody(t *testing.T) {
	small := Codec{Magic: [2]byte{'T', 'C'}, Version: 1, MaxFrame: 16}
	var buf bytes.Buffer
	if err := small.WriteFrame(&buf, 1, make([]byte, 13)); err == nil {
		t.Error("body over MaxFrame accepted by the writer")
	}
	if err := small.WriteFrame(&buf, 1, make([]byte, 12)); err != nil {
		t.Errorf("body exactly at MaxFrame rejected: %v", err)
	}
}

// Two codecs must refuse each other's streams on the magic byte.
func TestForeignMagicRejected(t *testing.T) {
	other := Codec{Magic: [2]byte{'X', 'Y'}, Version: 3, MaxFrame: 1 << 16}
	var buf bytes.Buffer
	if err := other.WriteFrame(&buf, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := testCodec.ReadFrame(&buf); err == nil || errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("foreign magic not rejected as magic error: %v", err)
	}
}

// The declared length is hostile until the bytes arrive: a header that
// claims the largest frame and then ends costs the reader one bodyChunk,
// not the claim; a body spanning several growth steps still reads back
// exactly.
func TestBodyAllocationFollowsArrival(t *testing.T) {
	big := Codec{Magic: [2]byte{'T', 'C'}, Version: 3, MaxFrame: 1 << 30, Checksum: true}
	probe := []byte{0x3f, 0xff, 0xff, 0xff, 'T', 'C', 3, 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := big.ReadFrame(bytes.NewReader(probe))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no body behind it was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*bodyChunk {
		t.Errorf("an 8-byte probe made the reader allocate %d bytes", grew)
	}

	body := make([]byte, 9*bodyChunk/2+17)
	for i := range body {
		body[i] = byte(i * 31)
	}
	var buf bytes.Buffer
	if err := big.WriteFrame(&buf, 2, body); err != nil {
		t.Fatal(err)
	}
	typ, got, err := big.ReadFrame(&buf)
	if err != nil || typ != 2 || !bytes.Equal(got, body) {
		t.Errorf("multi-chunk body did not read back: typ %d, %d of %d bytes, err %v", typ, len(got), len(body), err)
	}
}
