package snapshot

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
)

var update = flag.Bool("update", false, "rewrite golden snapshot files")

// fixturePair builds a small deterministic pair, mirroring the distrib
// wire fixtures.
func fixturePair(t testing.TB) *hetnet.AlignedPair {
	t.Helper()
	build := func(name string, shift int) *hetnet.Network {
		g := hetnet.NewSocialNetwork(name)
		for u := 0; u < 6; u++ {
			g.AddNode(hetnet.User, fmt.Sprintf("%s-u%d", name, u))
		}
		for u := 0; u < 6; u++ {
			if err := g.AddLinkByID(hetnet.Follow, fmt.Sprintf("%s-u%d", name, u), fmt.Sprintf("%s-u%d", name, (u+1+shift)%6)); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	pair := hetnet.NewAlignedPair(build("net1", 0), build("net2", 1))
	for u := 0; u < 3; u++ {
		if err := pair.AddAnchor(u, u); err != nil {
			t.Fatal(err)
		}
	}
	return pair
}

// fixtureSnapshot is a representative artifact with every section
// populated.
func fixtureSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	pair := fixturePair(t)
	meta := Meta{
		CreatedUnix: 1700000000, // fixed: golden bytes must not depend on the clock
		Facade:      "partitioned",
		Notation:    []string{"U→U", "U→P→U", "bias"},
		Features:    "full",
		Strategy:    "conflict",
		Threshold:   0.5,
		Seed:        2019,
		Budget:      6,
		BatchSize:   5,
		Partitions:  2,
	}
	model := Model{Shards: []ShardModel{
		{Shard: 0, W: []float64{0.5, -0.25, 0.125}},
		{Shard: 1, W: []float64{0.4, 0.1, -0.0625}},
	}}
	pool := []PoolLink{
		{I: 3, J: 3, Label: 1, Score: 0.9, HasScore: true},
		{I: 3, J: 4, Label: 0, Score: 0.2, HasScore: true},
		{I: 4, J: 4, Label: 1, Score: 0.8, HasScore: true, Queried: true},
		{I: 5, J: 3, Label: 0, Score: 0.1, HasScore: true, Queried: true},
		{I: 5, J: 5, Label: 0, HasScore: false},
	}
	matches := []Match{
		{I: 3, J: 3, Score: 0.9, HasScore: true},
		{I: 4, J: 4, Score: 0.8, HasScore: true},
	}
	labels := []QueriedLabel{{I: 4, J: 4, Label: 1}, {I: 5, J: 3, Label: 0}}
	s, err := Build(pair, meta, model, pool, matches, labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildDerivesTopK(t *testing.T) {
	s := fixtureSnapshot(t)
	// User 3 on net1 has two scored links; both fit in k=2, ranked by
	// score descending.
	var got *UserCandidates
	for i := range s.Cands {
		if s.Cands[i].Net == 1 && s.Cands[i].User == 3 {
			got = &s.Cands[i]
		}
	}
	if got == nil {
		t.Fatal("no candidate list for net1 user 3")
	}
	want := []Candidate{{Other: 3, Score: 0.9}, {Other: 4, Score: 0.2}}
	if !reflect.DeepEqual(got.Items, want) {
		t.Errorf("top-k for net1 user 3 = %+v, want %+v", got.Items, want)
	}
	// The unscored pool link (5,5) must not produce candidates; user 5's
	// only scored link is (5,3).
	for _, uc := range s.Cands {
		if uc.Net == 1 && uc.User == 5 {
			if len(uc.Items) != 1 || uc.Items[0].Other != 3 {
				t.Errorf("net1 user 5 candidates = %+v, want only (3)", uc.Items)
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	s := fixtureSnapshot(t)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, s)
	}
}

func TestWriteDeterministic(t *testing.T) {
	s := fixtureSnapshot(t)
	var a, b bytes.Buffer
	if err := s.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two writes of one snapshot produced different bytes")
	}
}

func TestFileRoundTrip(t *testing.T) {
	s := fixtureSnapshot(t)
	path := filepath.Join(t.TempDir(), "fixture.snap")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("file round trip diverged")
	}
}

// checkGolden pins the artifact's bytes: the golden file was written by
// another process, so Write(want) equalling it byte for byte is the
// cross-process determinism test, and decoding it back into want pins
// the reader. Any change to either forces a deliberate Version bump —
// regenerate with -update after bumping (see docs/SNAPSHOT.md).
func checkGolden(t *testing.T, name string, want *Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	if err := want.Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("the fixture no longer encodes to %s — format changed without a Version bump:\n got %x\nwant %x", name, buf.Bytes(), raw)
	}
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden artifact unreadable — format changed without a Version bump: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden artifact decodes differently:\n got %+v\nwant %+v", got, want)
	}
}

func TestGolden(t *testing.T) {
	checkGolden(t, "snapshot_v5.golden", fixtureSnapshot(t))
}

// TestV2Skew reads an artifact a Version-2 (gob) writer actually wrote:
// it must be refused at the first frame with the sentinel, naming both
// versions, never fed to the record decoders.
func TestV2Skew(t *testing.T) {
	checkSkew(t, "snapshot_v2.golden", 2)
}

// TestV3ShardSkew reads a shard a Version-3 writer actually wrote. Its
// bytes decode under v4's record layouts, but it holds only its range's
// slice of the net-2 read side, which a v4 fleet serves from one
// replica as the whole answer: it must be refused, not decoded.
func TestV3ShardSkew(t *testing.T) {
	checkSkew(t, "snapshot_v3_shard.golden", 3)
}

// TestV4Skew reads the artifacts a Version-4 writer actually wrote. Their
// model section leads with a primary weight vector v5 no longer has, so a
// v5 record decoder would read them as a different model: both must be
// refused at the first frame.
func TestV4Skew(t *testing.T) {
	checkSkew(t, "snapshot_v4.golden", 4)
	checkSkew(t, "snapshot_v4_shard.golden", 4)
}

func checkSkew(t *testing.T, name string, version int) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Read(bytes.NewReader(raw))
	want := fmt.Sprintf("got %d, want %d", version, Version)
	if !errors.Is(err, ErrVersionMismatch) || !strings.Contains(err.Error(), want) {
		t.Fatalf("v%d artifact: got %v, want ErrVersionMismatch naming %s", version, err, want)
	}
}

// A bumped version byte must be rejected with the sentinel, naming both
// versions.
func TestVersionMismatchRejected(t *testing.T) {
	s := fixtureSnapshot(t)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[6] = Version + 1 // version byte of the first frame
	_, err := Read(bytes.NewReader(raw))
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("got %v, want ErrVersionMismatch", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("got %d, want %d", Version+1, Version)) {
		t.Errorf("mismatch error does not name the versions: %v", err)
	}
}

func TestCorruptionRejected(t *testing.T) {
	s := fixtureSnapshot(t)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		// Cutting the stream after the first section loses the end frame.
		if _, err := Read(bytes.NewReader(good[:len(good)/2])); err == nil {
			t.Error("truncated artifact accepted")
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		// Flip one byte inside the pool section's body (far enough in to
		// be past the headers of the early frames, and away from the end
		// frame's own bytes).
		bad[len(bad)/2] ^= 0x40
		_, err := Read(bytes.NewReader(bad))
		if err == nil {
			t.Error("bit-flipped artifact accepted")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		if _, err := Read(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
			t.Error("garbage accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		_, err := Read(bytes.NewReader(nil))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("empty stream: %v", err)
		}
	})
}

// FuzzSnapshotRead feeds the artifact reader hostile bytes, seeded with
// both goldens: no panic, allocation bounded by the input's length (a
// decoded row is at most 16× its least encoding, a string header 16× its
// one-byte count; the frame reader runs at most 1 MiB ahead of the
// bytes it has), and whatever it accepts re-encodes to bytes that decode
// to the same snapshot and encode to themselves.
func FuzzSnapshotRead(f *testing.F) {
	for _, name := range []string{"snapshot_v5.golden", "snapshot_v5_shard.golden"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		first, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The constant is the frame reader's lead plus what the fuzz
		// engine's own goroutines allocate meanwhile (TotalAlloc is
		// process-wide).
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+1<<20+1<<16); grew > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		enc, fp, err := first.Encode()
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		second, err := Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded artifact rejected: %v", err)
		}
		again, fp2, err := second.Encode()
		if err != nil || !bytes.Equal(again, enc) || fp2 != fp {
			t.Fatalf("encoding is not a fixed point (%v): %x, then %x", err, enc, again)
		}
	})
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	pair := fixturePair(t)
	meta := Meta{Notation: []string{"bias"}}
	_, err := Build(pair, meta, Model{}, []PoolLink{{I: 99, J: 0}}, nil, nil, 0)
	if err == nil {
		t.Error("pool link outside the user tables accepted")
	}
	_, err = Build(pair, meta, Model{Shards: []ShardModel{{Shard: 0, W: []float64{1, 2}}}}, nil, nil, nil, 0)
	if err == nil {
		t.Error("weight/notation dimension mismatch accepted")
	}
	// Candidate lists are derived by Build, so a bad one can only arrive
	// in a decoded artifact or a reassembled entry set; every field of it
	// is checked like the other sections'.
	for name, mutate := range map[string]func(*Snapshot){
		"net":       func(s *Snapshot) { s.Cands[0].Net = 3 },
		"user":      func(s *Snapshot) { s.Cands[0].User = 6 },
		"candidate": func(s *Snapshot) { s.Cands[0].Items[0].Other = -1 },
		"depth":     func(s *Snapshot) { s.TopK = 1 },
	} {
		s := fixtureSnapshot(t)
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("candidate list with a bad %s accepted", name)
		}
	}
}

func TestNetworkFingerprint(t *testing.T) {
	a := fixturePair(t)
	b := fixturePair(t)
	if a.G1.Fingerprint() != b.G1.Fingerprint() {
		t.Error("identical networks fingerprint differently")
	}
	if a.G1.Fingerprint() == a.G2.Fingerprint() {
		t.Error("different networks share a fingerprint")
	}
	b.G1.AddNode(hetnet.User, "one-more")
	if a.G1.Fingerprint() == b.G1.Fingerprint() {
		t.Error("adding a node did not change the fingerprint")
	}
	if AnchorsFingerprint(a.Anchors) == AnchorsFingerprint(a.Anchors[:2]) {
		t.Error("anchor subsets share a fingerprint")
	}
}
