package distrib

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/partition"
)

var update = flag.Bool("update", false, "rewrite golden wire files")

// fixturePair builds a small deterministic pair: follows, posts,
// timestamps and check-ins on both sides with overlapping attribute
// values.
func fixturePair(t testing.TB) *hetnet.AlignedPair {
	t.Helper()
	build := func(name string, shift int) *hetnet.Network {
		g := hetnet.NewSocialNetwork(name)
		for u := 0; u < 8; u++ {
			g.AddNode(hetnet.User, fmt.Sprintf("%s-u%d", name, u))
		}
		for u := 0; u < 8; u++ {
			if err := g.AddLinkByID(hetnet.Follow, fmt.Sprintf("%s-u%d", name, u), fmt.Sprintf("%s-u%d", name, (u+1+shift)%8)); err != nil {
				t.Fatal(err)
			}
		}
		for u := 0; u < 8; u++ {
			post := fmt.Sprintf("%s-p%d", name, u)
			if err := g.AddLinkByID(hetnet.Write, fmt.Sprintf("%s-u%d", name, u), post); err != nil {
				t.Fatal(err)
			}
			// Shared attribute vocabularies: plain t%d / l%d IDs join
			// across networks.
			if err := g.AddLinkByID(hetnet.At, post, fmt.Sprintf("t%d", (u+shift)%4)); err != nil {
				t.Fatal(err)
			}
			if err := g.AddLinkByID(hetnet.Checkin, post, fmt.Sprintf("l%d", u%3)); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	pair := hetnet.NewAlignedPair(build("net1", 0), build("net2", 1))
	for u := 0; u < 4; u++ {
		if err := pair.AddAnchor(u, u); err != nil {
			t.Fatal(err)
		}
	}
	return pair
}

// TestFixtureFingerprintsUnmoved: the goldens' pair hashes to what it
// did before hetnet memoised Network.Fingerprint — values recorded at
// c5ccd7d — on the call that computes and on the call that reads the
// memo, and so does the seed fingerprint the golden Hello offers.
func TestFixtureFingerprintsUnmoved(t *testing.T) {
	pair := fixturePair(t)
	for call := 1; call <= 2; call++ {
		if g1, g2 := pair.G1.Fingerprint(), pair.G2.Fingerprint(); g1 != 0xc10d9a0a0eb062cb || g2 != 0xb71379826daf7f7a {
			t.Fatalf("call %d: network fingerprints %#x, %#x", call, g1, g2)
		}
		if fp := seedFingerprint(pair, FeaturesFull); fp != 0x25621389b92dcf44 {
			t.Fatalf("call %d: seed fingerprint %#x", call, fp)
		}
	}
}

// fixtureSeedEntry is what a worker holding the fixture pair's seed
// checks a job against: the anchor type and the two user counts.
func fixtureSeedEntry(t testing.TB) *seedEntry {
	t.Helper()
	pair := fixturePair(t)
	return &seedEntry{
		anchorType: string(pair.AnchorType),
		n1:         pair.G1.NodeCount(pair.AnchorType),
		n2:         pair.G2.NodeCount(pair.AnchorType),
	}
}

// fixtureJob is shard 1 of a two-part split of the fixture pair, as a
// session would ship it to a connection holding the fixture pair's seed.
func fixtureJob(t testing.TB) *Job {
	t.Helper()
	pair := fixturePair(t)
	part := &partition.Part{
		Index:      1,
		TrainPos:   []hetnet.Anchor{{I: 0, J: 0}, {I: 1, J: 1}},
		Candidates: []hetnet.Anchor{{I: 4, J: 5}, {I: 5, J: 4}, {I: 6, J: 6}},
		Budget:     3,
	}
	half := 0.5
	job := NewJob(pair, part, TrainConfig{
		FeatureSet: FeaturesFull,
		Strategy:   StrategyConflict,
		C:          1,
		Threshold:  &half,
		BatchSize:  5,
		Seed:       2019,
	})
	// A later round's job carries the prelabels of the rounds before it (a
	// pool candidate the oracle answered) and, at the frame's tail, the
	// attempt's trace context.
	job.Prelabeled = []WireLabel{{I: 4, J: 5, Label: 1}}
	job.TraceID = 0x1122334455667788
	job.SpanID = 0x99aabbcc
	return job
}

// fixtureSeed builds the fixture pair's warm-counter seed through the
// real coordinator path (cold count, export, encode) and decodes it
// back, so the golden pins exactly what a run would ship.
func fixtureSeed(t testing.TB) *WireSeed {
	t.Helper()
	_, body, _, err := buildSeed(fixturePair(t), nil, TrainConfig{FeatureSet: FeaturesFull}, 0x1122334455667788)
	if err != nil {
		t.Fatal(err)
	}
	var ws WireSeed
	if err := ws.decodeBody(body); err != nil {
		t.Fatal(err)
	}
	return &ws
}

// goldenFrames enumerates every frame type with a representative
// payload, the corpus the golden files pin.
func goldenFrames(t testing.TB) []struct {
	name    string
	typ     FrameType
	payload Payload
} {
	return []struct {
		name    string
		typ     FrameType
		payload Payload
	}{
		{"hello", FrameHello, &Hello{Role: "coordinator", SeedFP: seedFingerprint(fixturePair(t), FeaturesFull)}},
		// The worker's answer to an offer it cannot fill: SeedFP 0, "ship it".
		{"hello_worker", FrameHello, &Hello{Role: "worker"}},
		{"job", FrameJob, fixtureJob(t)},
		{"votes", FrameVotes, &Votes{Shard: 1, Votes: []Vote{
			{I: 4, J: 5, Label: 1, Score: 0.91},
			{I: 5, J: 4, Label: 0, Score: 0.12, Queried: true},
			{I: 0, J: 0, Label: 1, Score: 0.99, Fixed: true},
		}}},
		{"query", FrameQuery, &Query{Shard: 1, Seq: 7, I: 4, J: 5}},
		{"answer", FrameAnswer, &Answer{Seq: 7, Label: 1}},
		{"done", FrameDone, &Done{Shard: 1, TrainPos: 2, Candidates: 3, Budget: 3, Queries: 3, ElapsedNS: 12345678,
			Cached: true,
			W:      []float64{0.25, -0.5, 1.0, 0.0625},
			Spans: []WireSpan{
				{ID: 0xdead0001, Parent: 0x99aabbcc, Name: "prepare", StartNS: 1700000000_000000000, EndNS: 1700000000_001000000},
				{ID: 0xdead0002, Parent: 0x99aabbcc, Name: "train", StartNS: 1700000000_001000000, EndNS: 1700000000_009000000},
			}}},
		{"error", FrameError, &JobError{Shard: 1, Msg: "boom"}},
		{"seed", FrameSeed, fixtureSeed(t)},
	}
}

// TestWireGolden pins wire compatibility against recorded frames: every
// golden file holds the bytes a current-version peer writes for a
// representative payload, and they must keep decoding into that payload
// AND keep being what the payload encodes to, byte for byte — every body
// is a deterministic columnar layout. Any change that moves a byte (field
// added, reordered or retyped, header layout) fails here and forces a
// deliberate Version bump — regenerate with -update after bumping.
func TestWireGolden(t *testing.T) {
	for _, tc := range goldenFrames(t) {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "frame_"+tc.name+".golden")
			var enc bytes.Buffer
			if err := WriteFrame(&enc, tc.typ, tc.payload); err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			typ, body, err := ReadFrame(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("golden frame unreadable — wire format changed without a Version bump: %v", err)
			}
			if typ != tc.typ {
				t.Fatalf("golden frame type %d, want %d", typ, tc.typ)
			}
			got := fresh(tc.payload)
			if err := DecodeBody(body, got); err != nil {
				t.Fatalf("golden payload undecodable — bump Version and regenerate with -update: %v", err)
			}
			if !reflect.DeepEqual(got, tc.payload) {
				t.Errorf("golden payload decodes differently:\n got: %+v\nwant: %+v", got, tc.payload)
			}
			if !bytes.Equal(enc.Bytes(), raw) {
				t.Errorf("payload no longer encodes to the golden bytes — bump Version and regenerate with -update:\n got: %x\nwant: %x", enc.Bytes(), raw)
			}
		})
	}
}

// TestWireRoundTrip decodes each golden frame and checks the payloads
// survive: the job validates against the fixture pair into the part it
// was built from, and scored votes round-trip exactly.
func TestWireRoundTrip(t *testing.T) {
	for _, tc := range goldenFrames(t) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, tc.typ, tc.payload); err != nil {
			t.Fatal(err)
		}
		typ, body, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if typ != tc.typ {
			t.Fatalf("%s: type %d, want %d", tc.name, typ, tc.typ)
		}
		switch tc.name {
		case "job":
			var j Job
			if err := DecodeBody(body, &j); err != nil {
				t.Fatal(err)
			}
			orig := tc.payload.(*Job)
			part, err := j.part(fixtureSeedEntry(t))
			if err != nil {
				t.Fatal(err)
			}
			if len(part.Candidates) != len(orig.Candidates) {
				t.Errorf("job round-trip: %d candidates, want %d", len(part.Candidates), len(orig.Candidates))
			}
			if j.Budget != orig.Budget || j.Seed != orig.Seed || !j.HasThreshold || j.Threshold != 0.5 {
				t.Errorf("job round-trip: training config mangled: %+v", j)
			}
		case "votes":
			var v Votes
			if err := DecodeBody(body, &v); err != nil {
				t.Fatal(err)
			}
			orig := tc.payload.(*Votes)
			if len(v.Votes) != len(orig.Votes) {
				t.Fatalf("votes round-trip: %d votes, want %d", len(v.Votes), len(orig.Votes))
			}
			for k := range v.Votes {
				if v.Votes[k] != orig.Votes[k] {
					t.Errorf("vote %d round-trip: %+v, want %+v", k, v.Votes[k], orig.Votes[k])
				}
			}
		}
	}
}

// TestWireVersionMismatch is the rejection contract: a frame of any
// other protocol version must fail with ErrVersionMismatch, before any
// payload decoding.
func TestWireVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameHello, &Hello{Role: "worker"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[6] = Version + 1 // version byte lives after the 4-byte length + 2-byte magic
	_, _, err := ReadFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("got %v, want ErrVersionMismatch", err)
	}
}

// assertRecordedFrameRefused feeds the reader a frame an earlier protocol
// version actually wrote — that version's golden, kept from git history
// under testdata/ — and requires ErrVersionMismatch from ReadFrame, which
// is before any body decode.
func assertRecordedFrameRefused(t *testing.T, file string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("%s: got %v, want ErrVersionMismatch", file, err)
	}
}

// assertRefusedByReaderAt offers the named golden frames, as this
// version writes them, to a reader of an earlier version, and requires
// ErrVersionMismatch — the gate cuts both directions.
func assertRefusedByReaderAt(t *testing.T, version byte, names ...string) {
	t.Helper()
	old := framing.Codec{Magic: [2]byte{'A', 'I'}, Version: version, MaxFrame: maxFrameSize, Checksum: true}
	for _, tc := range goldenFrames(t) {
		if !slices.Contains(names, tc.name) {
			continue
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, tc.typ, tc.payload); err != nil {
			t.Fatal(err)
		}
		if _, _, err := old.ReadFrame(&buf); !errors.Is(err, framing.ErrVersionMismatch) {
			t.Fatalf("current %s frame at v%d reader: got %v, want ErrVersionMismatch", tc.name, version, err)
		}
	}
}

// TestWireV4Skew pins the cross-version contract the v5 codec bump
// leans on: a well-formed v4 frame — gob body, valid CRC — must fail
// with ErrVersionMismatch before any payload decoding. Without the
// version gate its gob bytes would be fed to a columnar decoder and
// mis-decode instead of failing loudly.
func TestWireV4Skew(t *testing.T) {
	assertRecordedFrameRefused(t, "v4_frame_hello.bin")
	assertRecordedFrameRefused(t, "v4_frame_job.bin")
}

// TestWireV5Skew: a v5 Job — columnar like today's, but self-contained
// and without the trace tail — is refused the same way, and the gate
// cuts both directions: a current frame offered to a v5 reader is
// refused too.
func TestWireV5Skew(t *testing.T) {
	assertRecordedFrameRefused(t, "v5_frame_job.bin")
	assertRefusedByReaderAt(t, 5, "hello_worker")
}

// TestWireV6Skew pins the v7 bump: a recorded v6 Job — the self-contained
// shape, with its unseeded flag, networks and inverse-map columns — never
// reaches the v7 decoder, which has no such fields and would misread the
// networks as the pool.
func TestWireV6Skew(t *testing.T) {
	assertRecordedFrameRefused(t, "v6_frame_job.bin")
}

// TestWireV7Skew pins the v8 bump, both ways: a recorded v7 Seed — two
// whole networks ahead of the entries — and a v7 Hello never reach the v8
// decoders, and a v7 reader refuses what this version writes.
func TestWireV7Skew(t *testing.T) {
	assertRecordedFrameRefused(t, "v7_frame_seed.bin")
	assertRecordedFrameRefused(t, "v7_frame_hello.bin")

	assertRefusedByReaderAt(t, 7, "seed", "hello")
}

// TestWireV8Skew pins the v9 bump, both ways: a recorded v8 Job — which
// still carries the cache fingerprint column v9 dropped — and a recorded
// v8 JobRef, a frame type v9 no longer has, never reach a v9 decoder, and
// a v8 reader refuses the v9 Job and Done.
func TestWireV8Skew(t *testing.T) {
	assertRecordedFrameRefused(t, "v8_frame_job.bin")
	assertRecordedFrameRefused(t, "v8_frame_jobref.bin")

	assertRefusedByReaderAt(t, 8, "job", "done")
}

// TestWireV9Skew pins the v10 bump, both ways: a recorded v9 Hello — no
// seed offer — and a recorded v9 seed-offer frame, a frame type v10
// folded into the Hello, never reach a v10 decoder, and a v9 reader
// refuses the v10 Hello and Job.
func TestWireV9Skew(t *testing.T) {
	assertRecordedFrameRefused(t, "v9_frame_hello.bin")
	assertRecordedFrameRefused(t, "v9_frame_seedref.bin")

	assertRefusedByReaderAt(t, 9, "hello", "job")
}

// TestWireV10Skew pins the v11 bump, both ways: a recorded v10 Cancel —
// type 8, which v11 retired — and a recorded v10 Hello never reach a v11
// decoder, and a v10 reader refuses the v11 Hello and Job.
func TestWireV10Skew(t *testing.T) {
	assertRecordedFrameRefused(t, "v10_frame_cancel.bin")
	assertRecordedFrameRefused(t, "v10_frame_hello.bin")

	assertRefusedByReaderAt(t, 10, "hello", "job")
}

// TestWireDetectsCorruption is the integrity contract behind the chaos
// tolerance story: flipping ANY payload byte of a frame must surface as
// ErrChecksum, never as a silently different decoded value. Without the
// CRC-32C trailer a flipped byte inside a packed vote score would decode
// cleanly and poison the merged alignment.
func TestWireDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameVotes, &Votes{Shard: 1, Votes: []Vote{{I: 4, J: 5, Label: 1, Score: 0.91}}}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Every body byte (between the 8-byte header and the 4-byte trailer),
	// and every trailer byte, must trip the check when flipped.
	for off := 8; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		_, _, err := ReadFrame(bytes.NewReader(bad))
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("flipped byte %d: got %v, want ErrChecksum", off, err)
		}
	}
	// The pristine frame still reads.
	if _, _, err := ReadFrame(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

// TestWireRejectsGarbage covers the fail-fast paths: bad magic,
// oversized length prefix, truncated body.
func TestWireRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameHello, &Hello{Role: "worker"}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	bad[4] = 'X'
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}

	huge := append([]byte(nil), good...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Error("oversized length accepted")
	}

	if _, _, err := ReadFrame(bytes.NewReader(good[:len(good)-3])); err == nil {
		t.Error("truncated body accepted")
	}

	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Error("empty stream should be io.EOF")
	}
}
