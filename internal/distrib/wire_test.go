package distrib

import (
	"bytes"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
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

// fixtureJob extracts shard 1 of a two-part split of the fixture pair.
func fixtureJob(t testing.TB) *Job {
	t.Helper()
	pair := fixturePair(t)
	part := &partition.Part{
		Index:      1,
		TrainPos:   []hetnet.Anchor{{I: 0, J: 0}, {I: 1, J: 1}},
		Candidates: []hetnet.Anchor{{I: 4, J: 5}, {I: 5, J: 4}, {I: 6, J: 6}},
		Budget:     3,
	}
	shard, err := partition.ExtractShard(pair, part)
	if err != nil {
		t.Fatal(err)
	}
	half := 0.5
	job := NewJob(shard, TrainConfig{
		FeatureSet: FeaturesFull,
		Strategy:   StrategyConflict,
		C:          1,
		Threshold:  &half,
		BatchSize:  5,
		Seed:       2019,
	})
	// Session fields ride on the same frame: a prelabel from an earlier
	// round (a pool candidate the oracle answered) and the shard-stable
	// fingerprint.
	job.Prelabeled = []WireLabel{{I: 4, J: 5, Label: 1}}
	job.Fingerprint = job.ComputeFingerprint()
	// Trace context rides the v6 tail; it is per-attempt state, so it
	// must not perturb the fingerprint computed above.
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
	payload any
} {
	return []struct {
		name    string
		typ     FrameType
		payload any
	}{
		{"hello", FrameHello, &Hello{Role: "coordinator"}},
		{"job", FrameJob, fixtureJob(t)},
		{"votes", FrameVotes, &Votes{Shard: 1, Votes: []Vote{
			{I: 4, J: 5, Label: 1, Score: 0.91},
			{I: 5, J: 4, Label: 0, Score: 0.12, Queried: true},
			{I: 0, J: 0, Label: 1, Score: 0.99, Fixed: true},
		}}},
		{"progress", FrameProgress, &Progress{Shard: 1, Stage: "training", Queries: 2}},
		{"query", FrameQuery, &Query{Shard: 1, Seq: 7, I: 4, J: 5}},
		{"answer", FrameAnswer, &Answer{Seq: 7, Label: 1}},
		{"done", FrameDone, &Done{Shard: 1, TrainPos: 2, Candidates: 3, Budget: 3, Queries: 3, ElapsedNS: 12345678,
			W: []float64{0.25, -0.5, 1.0, 0.0625},
			Spans: []WireSpan{
				{ID: 0xdead0001, Parent: 0x99aabbcc, Name: "prepare", StartNS: 1700000000_000000000, EndNS: 1700000000_001000000},
				{ID: 0xdead0002, Parent: 0x99aabbcc, Name: "train", StartNS: 1700000000_001000000, EndNS: 1700000000_009000000},
			}}},
		{"error", FrameError, &JobError{Shard: 1, Msg: "boom"}},
		{"jobref", FrameJobRef, &JobRef{Shard: 1, Fingerprint: 0xfeedc0dedeadbeef,
			AddLabels: []WireLabel{{I: 4, J: 5, Label: 1}, {I: 5, J: 4, Label: 0}}, Budget: 2, Seed: partition.RoundSeed(2019, 1),
			TraceID: 0x1122334455667788, SpanID: 0x99aabbcd}},
		{"cacheack", FrameCacheAck, &CacheAck{Shard: 1, Fingerprint: 0xfeedc0dedeadbeef, Hit: true}},
		{"cancel", FrameCancel, &Cancel{Shard: 1}},
		{"seedref", FrameSeedRef, &SeedRef{Fingerprint: 0x1badd00dcafef00d}},
		{"seed", FrameSeed, fixtureSeed(t)},
	}
}

// TestWireGolden pins wire compatibility against recorded frames: every
// golden file holds bytes a Version-1 coordinator/worker actually wrote,
// and the current reader must still decode each one into the expected
// payload. Any change that breaks decoding (field rename or retype,
// header layout, encoder swap) fails here and forces a deliberate
// Version bump — regenerate with -update after bumping. Byte-for-byte
// re-encoding is deliberately NOT asserted: gob assigns wire type IDs
// from a process-global counter, so equal payloads can encode with
// different (self-describing, mutually decodable) type IDs depending on
// encode history.
func TestWireGolden(t *testing.T) {
	for _, tc := range goldenFrames(t) {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "frame_"+tc.name+".golden")
			if *update {
				var buf bytes.Buffer
				if err := WriteFrame(&buf, tc.typ, tc.payload); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
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
			// Decode into a fresh value of the payload's type and compare
			// structurally. The expected payload is normalized through one
			// encode/decode cycle first: gob flattens empty slices to nil,
			// and that normalization is part of the format, not a change.
			got := reflect.New(reflect.TypeOf(tc.payload).Elem()).Interface()
			if err := DecodeBody(body, got); err != nil {
				t.Fatalf("golden payload undecodable — bump Version and regenerate with -update: %v", err)
			}
			var norm bytes.Buffer
			if err := WriteFrame(&norm, tc.typ, tc.payload); err != nil {
				t.Fatal(err)
			}
			_, normBody, err := ReadFrame(&norm)
			if err != nil {
				t.Fatal(err)
			}
			want := reflect.New(reflect.TypeOf(tc.payload).Elem()).Interface()
			if err := DecodeBody(normBody, want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("golden payload decodes differently:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestWireRoundTrip decodes each golden frame and checks the payloads
// survive: the job's sub-pair rebuilds into a valid aligned pair whose
// pool links translate back through the inverse maps, and scored votes
// round-trip exactly.
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
			pair, part, err := j.DecodeShard()
			if err != nil {
				t.Fatal(err)
			}
			if got := pair.G1.NodeCount(hetnet.User); got != len(orig.InvUsers1) {
				t.Errorf("job round-trip: G1 has %d users, want %d", got, len(orig.InvUsers1))
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

// TestWireV4Skew pins the cross-version contract the v5 codec bump
// leans on: a well-formed v4 frame — gob body, valid CRC, only the
// version byte differs — must fail with ErrVersionMismatch before any
// payload decoding. A v4 Job body is gob where v5 expects columnar
// bytes; without the version gate it would be fed to the columnar
// decoder and mis-decode instead of failing loudly.
func TestWireV4Skew(t *testing.T) {
	v4 := framing.Codec{Magic: [2]byte{'A', 'I'}, Version: 4, MaxFrame: maxFrameSize, Checksum: true}
	for _, tc := range []struct {
		name string
		typ  FrameType
		body any
	}{
		{"hello", FrameHello, &Hello{Role: "worker"}},
		{"job", FrameJob, fixtureJob(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var body bytes.Buffer
			if err := gob.NewEncoder(&body).Encode(tc.body); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := v4.WriteFrame(&buf, byte(tc.typ), body.Bytes()); err != nil {
				t.Fatal(err)
			}
			_, _, err := ReadFrame(&buf)
			if !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("v4 frame: got %v, want ErrVersionMismatch", err)
			}
		})
	}
}

// TestWireV5Skew pins the v6 bump's cross-version contract: a
// well-formed v5 frame — same columnar body layout minus the trace
// tail, valid CRC — must fail with ErrVersionMismatch before payload
// decoding. Without the version gate a v5 Job body would reach the v6
// decoder, which demands the TraceID/SpanID tail and would mis-read the
// frame (or, worse, accept a truncated interpretation) instead of
// failing loudly.
func TestWireV5Skew(t *testing.T) {
	v5 := framing.Codec{Magic: [2]byte{'A', 'I'}, Version: 5, MaxFrame: maxFrameSize, Checksum: true}
	job := fixtureJob(t)
	// A v5 writer had no trace fields; its body ended where the v6 tail
	// begins. Encode with zero trace context and drop the two 1-byte
	// zero uvarints to reproduce the exact v5 body.
	job.TraceID, job.SpanID = 0, 0
	v5Body := job.appendBody(nil)
	v5Body = v5Body[:len(v5Body)-2]
	var buf bytes.Buffer
	if err := v5.WriteFrame(&buf, byte(FrameJob), v5Body); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadFrame(&buf)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("v5 frame: got %v, want ErrVersionMismatch", err)
	}

	// And the inverse skew: a v6 frame offered to a v5 reader is refused
	// the same way — the gate cuts both directions.
	var v6buf bytes.Buffer
	if err := WriteFrame(&v6buf, FrameHello, &Hello{Role: "worker"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v5.ReadFrame(&v6buf); !errors.Is(err, framing.ErrVersionMismatch) {
		t.Fatalf("v6 frame at v5 reader: got %v, want ErrVersionMismatch", err)
	}
}

// TestWireDetectsCorruption is the integrity contract behind the chaos
// tolerance story: flipping ANY payload byte of a frame must surface as
// ErrChecksum, never as a silently different decoded value. Without the
// CRC-32C trailer a flipped byte inside a gob-encoded vote score would
// decode cleanly and poison the merged alignment.
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
