package distrib

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
)

// resetSeedCache empties the process-wide seed cache, as a freshly
// started worker process would find it.
func resetSeedCache() {
	seedMu.Lock()
	seedCache = map[uint64]*seedEntry{}
	seedLRU = nil
	seedMu.Unlock()
}

// randomSeedEntry draws a CSR matrix with the shapes the codec has to
// tell apart: empty rows, an empty matrix, wide column gaps, and one of
// three value runs — small integers, integers at and beyond the 2^53
// packing limit, arbitrary floats.
func randomSeedEntry(rng *rand.Rand, maxRows, maxCols int) metadiag.SeedEntry {
	e := metadiag.SeedEntry{Key: "Ψ" + string(rune('a'+rng.Intn(26))), Rows: rng.Intn(maxRows + 1), Cols: 1 + rng.Intn(maxCols)}
	nodes := []schema.TypedNode{schema.User1(), schema.User2(), schema.Post1(), schema.LocationT(), {}}
	e.Source, e.Sink = nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
	if rng.Intn(8) == 0 {
		e.Rows = 0
	}
	e.RowPtr = make([]int, e.Rows+1)
	density := rng.Float64() * rng.Float64()
	kind := rng.Intn(3)
	for r := 0; r < e.Rows; r++ {
		if rng.Intn(4) > 0 { // a quarter of the rows stay empty
			for c := 0; c < e.Cols; c++ {
				if rng.Float64() < density {
					e.ColIdx = append(e.ColIdx, c)
					var v float64
					switch kind {
					case 0:
						v = float64(rng.Intn(300))
					case 1:
						v = float64(uint64(1)<<53 - 2 + uint64(rng.Intn(4))) // straddles the limit
					default:
						v = rng.NormFloat64() * 1e3
					}
					e.Val = append(e.Val, v)
				}
			}
		}
		e.RowPtr[r+1] = len(e.ColIdx)
	}
	return e
}

// sameSeedEntry compares two decoded entries; a nil and an empty array
// are the same array.
func sameSeedEntry(a, b metadiag.SeedEntry) bool {
	sameVals := slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
	return a.Key == b.Key && a.Source == b.Source && a.Sink == b.Sink && a.Rows == b.Rows && a.Cols == b.Cols &&
		slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx) && sameVals
}

// TestSeedDecodeMatchesReference holds the two-pass decoder to the one
// it replaced: equal output on every valid segment, and an error from
// both on every truncated prefix of one.
func TestSeedDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		// Every third matrix is small enough to walk all its prefixes.
		small := trial%3 == 0
		e := randomSeedEntry(rng, 40, 5000)
		if small {
			e = randomSeedEntry(rng, 6, 200)
		}
		seg := appendSeedEntry(nil, &e)
		got, err := decodeSeedEntry(seg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := referenceDecodeSeedEntry(seg)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if !sameSeedEntry(got, want) || !sameSeedEntry(got, e) {
			t.Fatalf("trial %d: decoded entry differs from the reference decoder's or from the input", trial)
		}
		if cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val) != len(got.Val) {
			t.Fatalf("trial %d: arrays not exactly sized: colIdx %d/%d, val %d/%d",
				trial, len(got.ColIdx), cap(got.ColIdx), len(got.Val), cap(got.Val))
		}
		for cut := 0; small && cut < len(seg); cut++ {
			_, gerr := decodeSeedEntry(seg[:cut:cut])
			_, werr := referenceDecodeSeedEntry(seg[:cut:cut])
			if gerr == nil || werr == nil {
				t.Fatalf("trial %d: truncation at %d/%d accepted (new %v, reference %v)", trial, cut, len(seg), gerr, werr)
			}
		}
	}
}

// TestSeedEntryDecodeAllocs: decoding one entry allocates the key, the
// three arrays and nothing that grows with the matrix — it used to be
// one reallocation per doubling of the column array.
func TestSeedEntryDecodeAllocs(t *testing.T) {
	e := metadiag.SeedEntry{Key: "Ψ", Rows: 1000, Cols: 4000, RowPtr: make([]int, 1001)}
	for r := 0; r < e.Rows; r++ {
		for c := r % 7; c < e.Cols && len(e.ColIdx) < (r+1)*100; c += 31 {
			e.ColIdx = append(e.ColIdx, c)
			e.Val = append(e.Val, float64(c%300))
		}
		e.RowPtr[r+1] = len(e.ColIdx)
	}
	if len(e.ColIdx) != 100_000 {
		t.Fatalf("fixture has %d entries, want 100000", len(e.ColIdx))
	}
	seg := appendSeedEntry(nil, &e)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := decodeSeedEntry(seg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("decodeSeedEntry allocated %.0f objects for a 100k-entry matrix, want ≤ 6", allocs)
	}
}

// FuzzSeedBody: the seed body decoder reads bytes a socket delivered. It
// must never panic, never allocate more than a fixed multiple of what it
// was given (every declared count is checked against the bytes that
// remain before anything is sized by it), what it accepts must be a fixed
// point of decode → encode → decode, and its entry decoder must agree
// with the reference decoder on every input. The v8 golden's body is in
// the seed corpus.
func FuzzSeedBody(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "frame_seed.golden"))
	if err != nil {
		f.Fatal(err)
	}
	_, body, err := ReadFrame(bytes.NewReader(golden))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 4; i++ {
		e := randomSeedEntry(rng, 6, 200)
		f.Add(appendSeedEntry(nil, &e))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var ws WireSeed
		derr := ws.decodeBody(data)
		got, gerr := decodeSeedEntry(data)
		runtime.ReadMemStats(&after)
		// Worst case is a body of one-byte segments: a SeedEntry header,
		// a slice header, an error slot and a wrapped error per input byte.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(512*len(data)+1<<16); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		want, werr := referenceDecodeSeedEntry(data)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("entry decoder verdicts differ: new %v, reference %v", gerr, werr)
		}
		if gerr == nil && !sameSeedEntry(got, want) {
			t.Fatal("entry decoders accept the input and disagree on its content")
		}
		if derr == nil {
			enc := ws.appendBody(nil)
			var again WireSeed
			if err := again.decodeBody(enc); err != nil {
				t.Fatalf("re-encoded body refused: %v", err)
			}
			if !bytes.Equal(again.appendBody(nil), enc) {
				t.Fatal("decode → encode → decode is not a fixed point")
			}
		}
	})
}

// shippedCounter takes a seed the way a worker gets one — through the
// wire body — and builds the network-free counter from nothing else.
func shippedCounter(t testing.TB, seed *metadiag.Seed) *metadiag.Counter {
	t.Helper()
	var ws WireSeed
	if err := ws.decodeBody((&WireSeed{Fingerprint: 1, Seed: *seed}).appendBody(nil)); err != nil {
		t.Fatal(err)
	}
	c, err := metadiag.NewSeededCounter(&ws.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSeededCounterMatchesPairCounter is the property the wire's v8 seed
// rests on: a counter built from ExportSeed's output alone, after a round
// trip through the seed body, counts what a fork of the pair-built
// counter counts — every feature's matrix, its marginals and the feature
// matrix of a pool, bit for bit — whatever the pair, the feature set and
// the anchor subset.
func TestSeededCounterMatchesPairCounter(t *testing.T) {
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for _, dataSeed := range []int64{1, 7, 42} {
		cfg := datagen.Tiny()
		cfg.Seed = dataSeed
		pair, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(dataSeed))
		pool := append([]hetnet.Anchor(nil), pair.Anchors...)
		n1, n2 := pair.G1.NodeCount(pair.AnchorType), pair.G2.NodeCount(pair.AnchorType)
		for k := 0; k < 200; k++ {
			pool = append(pool, hetnet.Anchor{I: rng.Intn(n1), J: rng.Intn(n2)})
		}
		for _, set := range []string{FeaturesFull, FeaturesPaths, FeaturesExtended} {
			feats, err := ResolveFeatures(set)
			if err != nil {
				t.Fatal(err)
			}
			base, err := metadiag.NewCounter(pair)
			if err != nil {
				t.Fatal(err)
			}
			seed, err := base.ExportSeed(feats)
			if err != nil {
				t.Fatal(err)
			}
			if len(seed.Adjacency) == 0 || len(seed.Entries) == 0 {
				t.Fatalf("seed %d/%s: %d adjacency and %d count entries", dataSeed, set, len(seed.Adjacency), len(seed.Entries))
			}
			seeded := shippedCounter(t, seed)
			if seeded.Pair() != nil {
				t.Fatal("a seeded counter holds a pair")
			}
			half := len(pair.Anchors) / 2
			for name, anchors := range map[string][]hetnet.Anchor{
				"first-half": pair.Anchors[:half], "second-half": pair.Anchors[half:], "none": nil,
			} {
				want, got := base.Fork(), seeded.Fork()
				want.SetAnchors(append([]hetnet.Anchor{}, anchors...)) // non-nil: nil means the pair's full set there
				got.SetAnchors(anchors)
				for _, f := range feats {
					wp, err := want.Proximity(f.D)
					if err != nil {
						t.Fatal(err)
					}
					gp, err := got.Proximity(f.D)
					if err != nil {
						t.Fatalf("seed %d/%s/%s: feature %s on the seeded counter: %v", dataSeed, set, name, f.ID, err)
					}
					_, _, wr, wc, wv := wp.Counts.Raw()
					_, _, gr, gc, gv := gp.Counts.Raw()
					if !wp.Counts.Equal(gp.Counts) || !slices.Equal(wr, gr) || !slices.Equal(wc, gc) || !slices.Equal(bits(wv), bits(gv)) {
						t.Fatalf("seed %d/%s/%s: feature %s counts differ", dataSeed, set, name, f.ID)
					}
					if !slices.Equal(bits(wp.RowSums), bits(gp.RowSums)) || !slices.Equal(bits(wp.ColSums), bits(gp.ColSums)) {
						t.Fatalf("seed %d/%s/%s: feature %s marginals differ", dataSeed, set, name, f.ID)
					}
				}
				wx, err := metadiag.NewExtractor(want, feats, true).FeatureMatrix(pool)
				if err != nil {
					t.Fatal(err)
				}
				gx, err := metadiag.NewExtractor(got, feats, true).FeatureMatrix(pool)
				if err != nil {
					t.Fatal(err)
				}
				for i := range pool {
					if !slices.Equal(bits(wx.RowView(i)), bits(gx.RowView(i))) {
						t.Fatalf("seed %d/%s/%s: feature row %d differs", dataSeed, set, name, i)
					}
				}
			}
		}
	}
}

// TestSeedMissingEntryNamesTheNotation: a seeded counter has nothing to
// recount from, so a seed short of one count or one adjacency fails the
// first Count that needs it — naming the notation — and counts everything
// that does not.
func TestSeedMissingEntryNamesTheNotation(t *testing.T) {
	feats, _ := ResolveFeatures(FeaturesFull)
	base, err := metadiag.NewCounter(fixturePair(t))
	if err != nil {
		t.Fatal(err)
	}
	full, err := base.ExportSeed(feats)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		drop func(*metadiag.Seed) string
	}{
		{"count", func(s *metadiag.Seed) string {
			key := s.Entries[0].Key
			s.Entries = s.Entries[1:]
			return key
		}},
		{"adjacency", func(s *metadiag.Seed) string {
			key := s.Adjacency[0].Key
			s.Adjacency = s.Adjacency[1:]
			return key
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			short := *full
			missing := tc.drop(&short)
			c := shippedCounter(t, &short)
			c.SetAnchors(fixturePair(t).Anchors)
			failed := 0
			for _, f := range feats {
				m, err := c.Count(f.D)
				switch {
				case err == nil && m == nil:
					t.Fatalf("feature %s: no matrix and no error", f.ID)
				case err != nil && !strings.Contains(err.Error(), fmt.Sprintf("%q", missing)):
					t.Fatalf("feature %s: error %q does not name %q", f.ID, err, missing)
				case err != nil:
					failed++
				}
			}
			if failed == 0 || failed == len(feats) {
				t.Fatalf("%d of %d features failed without %q; want some and not all", failed, len(feats), missing)
			}
		})
	}
}

// TestInstallRefusesBadSeed: an entry that breaks a CSR invariant, or a
// shape that disagrees with the declared user counts, fails the install —
// the worker answers the Seed frame with an Error frame, which the
// coordinator's handshake turns into a burnt connection, the worker ends
// the connection, and nothing becomes resident.
func TestInstallRefusesBadSeed(t *testing.T) {
	feats, _ := ResolveFeatures(FeaturesFull)
	base, err := metadiag.NewCounter(fixturePair(t))
	if err != nil {
		t.Fatal(err)
	}
	good, err := base.ExportSeed(feats)
	if err != nil {
		t.Fatal(err)
	}
	// clone detaches the entry lists (and entry k's arrays) from the
	// counter's cached matrices before a case corrupts them.
	clone := func(k int) *metadiag.Seed {
		s := *good
		s.Adjacency = slices.Clone(good.Adjacency)
		s.Entries = slices.Clone(good.Entries)
		e := &s.Entries[k]
		e.RowPtr, e.ColIdx, e.Val = slices.Clone(e.RowPtr), slices.Clone(e.ColIdx), slices.Clone(e.Val)
		return &s
	}
	filled := slices.IndexFunc(good.Entries, func(e metadiag.SeedEntry) bool { return len(e.ColIdx) > 0 })
	for _, tc := range []struct {
		name, want string
		seed       func() *metadiag.Seed
	}{
		{"column out of range", "out of order or range", func() *metadiag.Seed {
			s := clone(filled)
			s.Entries[filled].ColIdx[0] = s.Entries[filled].Cols
			return s
		}},
		{"user count disagrees", "user(1) has 9 nodes", func() *metadiag.Seed {
			s := clone(0)
			s.N1++
			return s
		}},
		{"adjacency shape disagrees", "nodes", func() *metadiag.Seed {
			s := clone(0)
			a := &s.Adjacency[0]
			a.Rows++
			a.RowPtr = append(slices.Clone(a.RowPtr), a.RowPtr[len(a.RowPtr)-1])
			return s
		}},
		{"negative user count", "declares", func() *metadiag.Seed {
			s := clone(0)
			s.N2 = -1
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resetSeedCache()
			const fp = 0xbad5eed
			body := (&WireSeed{Fingerprint: fp, Seed: *tc.seed()}).appendBody(nil)
			c, served := workerDial(t)
			n, err := handshake(c, fp, body)
			if err == nil || n == 0 || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("handshake: %d seed bytes, err %v; want a shipped body and a remote error containing %q", n, err, tc.want)
			}
			if seedCacheGet(fp) != nil {
				t.Fatal("a refused seed became resident")
			}
			// A connection without a seed has nothing to serve: the worker
			// ends it with the install's error.
			if err := <-served; err == nil || !strings.Contains(err.Error(), "seed install") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Serve after a refused seed: %v", err)
			}
		})
	}
}

// TestJobIndicesBoundedBySeed: every index a Job names, cold or warm, is
// checked against the seed's two node counts — there is no network on the
// worker to check it against, and an unchecked one would index a count
// matrix out of range.
func TestJobIndicesBoundedBySeed(t *testing.T) {
	seed := fixtureSeedEntry(t)
	for _, tc := range []struct {
		name string
		edit func(*Job)
	}{
		{"anchor row", func(j *Job) { j.TrainPos[0].I = seed.n1 }},
		{"anchor column", func(j *Job) { j.TrainPos[1].J = seed.n2 }},
		{"anchor negative", func(j *Job) { j.TrainPos[0].J = -1 }},
		{"candidate row", func(j *Job) { j.Candidates[2].I = seed.n1 }},
		{"candidate column", func(j *Job) { j.Candidates[0].J = seed.n2 + 5 }},
		{"candidate negative", func(j *Job) { j.Candidates[1].I = -1 }},
		{"prelabel row", func(j *Job) { j.Prelabeled[0].I = int32(seed.n1) }},
		{"prelabel column", func(j *Job) { j.Prelabeled[0].J = int32(seed.n2) }},
		{"prelabel negative", func(j *Job) { j.Prelabeled[0].I = -1 }},
	} {
		job := fixtureJob(t)
		if _, err := job.part(seed); err != nil {
			t.Fatalf("%s: the unedited job is refused: %v", tc.name, err)
		}
		tc.edit(job)
		if _, err := job.part(seed); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: got %v, want an out-of-range error", tc.name, err)
		}
	}
	// One more user on either side and the same indices are in range.
	job := fixtureJob(t)
	job.TrainPos[0].I, job.Candidates[0].J = seed.n1, seed.n2
	wider := *seed
	wider.n1++
	wider.n2++
	if _, err := job.part(&wider); err != nil {
		t.Fatalf("job inside a wider seed's bounds refused: %v", err)
	}
	mismatch := fixtureJob(t)
	mismatch.AnchorType = "protein"
	if _, err := mismatch.part(seed); err == nil || !strings.Contains(err.Error(), "anchor type") {
		t.Errorf("anchor type mismatch: got %v", err)
	}

	// A job whose shard the worker holds warm is checked the same way,
	// against the bounds the prepared shard took from its seed, over a live
	// worker connection.
	w := dialSeeded(t, fixturePair(t), TrainConfig{FeatureSet: FeaturesFull})
	job = fixtureJob(t)
	job.Budget = 0
	if err := WriteFrame(w, FrameJob, job); err != nil {
		t.Fatal(err)
	}
	drainToDone(t, w)
	for _, l := range []WireLabel{{I: int32(seed.n1), J: 0, Label: 1}, {I: 0, J: int32(seed.n2), Label: 0}, {I: -1, J: 0, Label: 1}} {
		next := *job
		next.Prelabeled = append(slices.Clip(job.Prelabeled), l)
		if err := WriteFrame(w, FrameJob, &next); err != nil {
			t.Fatal(err)
		}
		var je JobError
		if err := ReadExpect(w, FrameError, &je); err != nil || !strings.Contains(je.Msg, "out of range") {
			t.Fatalf("label %+v: error frame %+v, err %v", l, je, err)
		}
	}
	// The shard was held warm throughout: the in-range job re-runs on it.
	if err := WriteFrame(w, FrameJob, job); err != nil {
		t.Fatal(err)
	}
	if !drainToDone(t, w).Cached {
		t.Error("the refused jobs were not checked against a warm shard: it is gone")
	}
}

// workerDial opens a connection into an in-process worker, before any
// Hello; served receives Serve's return once the connection ends.
func workerDial(t *testing.T) (net.Conn, <-chan error) {
	t.Helper()
	c, w := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- Serve(w) }()
	t.Cleanup(func() { c.Close() })
	return c, served
}

// seededWorker is a connection into an in-process worker that holds a
// seed: what every test that writes raw Job frames starts from.
type seededWorker struct {
	net.Conn
	fp     uint64       // the connection's seed
	served <-chan error // Serve's return, once the connection ends
}

// dialSeeded brings a worker connection to where Session.connect leaves
// one — the pair's seed built by buildSeed and offered through the real
// handshake — without a session around it.
func dialSeeded(t *testing.T, pair *hetnet.AlignedPair, cfg TrainConfig) *seededWorker {
	t.Helper()
	fp, body, _, err := buildSeed(pair, nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, served := workerDial(t)
	if _, err := handshake(c, fp, body); err != nil {
		t.Fatal(err)
	}
	return &seededWorker{Conn: c, fp: fp, served: served}
}

// TestPinnedSeedOutlivesEviction: a connection's seed is the one its
// handshake settled on for as long as the connection lives. Two other
// seeds installed in the process afterwards push it out of the LRU
// (DefaultSeedCacheSize is 2), and the connection's jobs still run to
// Done — cold and warm — on the entry it pinned.
func TestPinnedSeedOutlivesEviction(t *testing.T) {
	resetSeedCache()
	defer resetSeedCache()
	w := dialSeeded(t, fixturePair(t), TrainConfig{FeatureSet: FeaturesFull})
	for k := uint64(1); k <= DefaultSeedCacheSize; k++ {
		seedCachePut(w.fp^k, &seedEntry{})
	}
	if seedCacheGet(w.fp) != nil {
		t.Fatal("the fixture seed is still resident; the test evicted nothing")
	}
	job := fixtureJob(t)
	job.Budget = 0 // no oracle round-trips to answer by hand
	for _, warm := range []bool{false, true} {
		if err := WriteFrame(w, FrameJob, job); err != nil {
			t.Fatal(err)
		}
		if d := drainToDone(t, w); d.Cached != warm {
			t.Fatalf("Done.Cached = %v, want %v", d.Cached, warm)
		}
	}
}

// TestJobWithoutInstalledSeedIsRefused: a job is only a pool of indices
// into a seed, so a connection runs none before its handshake pinned one.
// A Job in place of the coordinator's Hello, a Hello that offers no seed,
// and a Job in place of the Seed frame a miss asked for each end the
// connection without a Done — and the last leaves no claim behind: the
// next connection offering that fingerprint is told to ship, not held.
func TestJobWithoutInstalledSeedIsRefused(t *testing.T) {
	resetSeedCache()
	defer resetSeedCache()
	fp := seedFingerprint(fixturePair(t), FeaturesFull)
	job := fixtureJob(t)
	offer := &Hello{Role: "coordinator", SeedFP: fp}
	refused := func(t *testing.T, served <-chan error, want string) {
		t.Helper()
		select {
		case err := <-served:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Serve returned %v, want an error containing %q", err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the worker kept the connection open")
		}
	}
	// miss offers fp on a fresh connection and requires the answer "ship it".
	miss := func(t *testing.T, c net.Conn) {
		t.Helper()
		if err := WriteFrame(c, FrameHello, offer); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var h Hello
		if err := ReadExpect(c, FrameHello, &h); err != nil || h.SeedFP != 0 {
			t.Fatalf("offer into an empty cache: worker holds %016x, err %v; want a miss", h.SeedFP, err)
		}
	}

	t.Run("job before hello", func(t *testing.T) {
		c, served := workerDial(t)
		if err := WriteFrame(c, FrameJob, job); err != nil {
			t.Fatal(err)
		}
		refused(t, served, "unexpected frame type")
	})
	t.Run("hello without seed", func(t *testing.T) {
		c, served := workerDial(t)
		if err := WriteFrame(c, FrameHello, &Hello{Role: "coordinator"}); err != nil {
			t.Fatal(err)
		}
		refused(t, served, "offers no seed")
	})
	t.Run("job instead of seed", func(t *testing.T) {
		c, served := workerDial(t)
		miss(t, c)
		if err := WriteFrame(c, FrameJob, job); err != nil {
			t.Fatal(err)
		}
		refused(t, served, "unexpected frame type")
		if seedCacheGet(fp) != nil {
			t.Fatal("a seed became resident without a Seed frame")
		}
		next, _ := workerDial(t)
		miss(t, next)
	})
}

// TestSeedBuildErrorFailsTheRun: a seed that cannot be built is the
// run's one clear error. It comes back from round 1 (and every later
// Run) wrapped once, with nothing spent on it — no redial, no retry, no
// fallback worker, which would need the same seed — and slots connected
// ahead of the plan stay cold.
func TestSeedBuildErrorFailsTheRun(t *testing.T) {
	fx := newDistFixture(t, 3, 0)
	bad := fx.train
	bad.FeatureSet = "bogus"
	tt := &trackingTransport{inner: Loopback{}}
	sess, err := NewSession(tt, fx.pair, Options{Train: bad, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.ConnectAhead(fx.k)
	for round := 1; round <= 2; round++ {
		res, _, err := sess.Run(fx.plan, nil)
		if err == nil || res != nil {
			t.Fatalf("round %d: run with an unbuildable seed returned %v, %v", round, res, err)
		}
		if want := `distrib: seed: distrib: unknown feature set "bogus"`; err.Error() != want {
			t.Fatalf("round %d: error %q, want %q", round, err, want)
		}
	}
	if m := sess.Metrics(); m.Retries != 0 || m.Fallbacks != 0 || len(m.Shards) != 0 {
		t.Errorf("recovery was spent on a seed error: %+v", m)
	}
	for _, slot := range sess.slots {
		slot.await()
		if slot.conn != nil {
			t.Errorf("slot %d kept a connection it could not seed", slot.index)
		}
	}
	tt.mu.Lock()
	dials := len(tt.conns)
	tt.mu.Unlock()
	if dials > 2 {
		t.Errorf("%d dials for 2 ahead-of-time connects: something redialed", dials)
	}
}

// TestConcurrentSeedOffersShipOnce: the dedup of concurrent seed offers
// lives in the worker process. N fresh connections whose Hellos offer one
// fingerprint at once into an empty cache cost one body, and a
// connection that was told to ship and then died hands the install to a
// waiter instead of wedging it.
func TestConcurrentSeedOffersShipOnce(t *testing.T) {
	fp, body, _, err := buildSeed(fixturePair(t), nil, TrainConfig{FeatureSet: FeaturesFull}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	dial := func() net.Conn {
		c, _ := workerDial(t)
		return c
	}

	// handshakeAll runs the coordinator side on every connection at once
	// and reports how many shipped the body.
	handshakeAll := func(t *testing.T, conns []net.Conn) (ships int) {
		t.Helper()
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func(c net.Conn) {
				defer wg.Done()
				shipped, err := handshake(c, fp, body)
				if err != nil {
					t.Errorf("handshake: %v", err)
				}
				mu.Lock()
				defer mu.Unlock()
				if shipped > 0 {
					ships++
				}
			}(c)
		}
		wg.Wait()
		return ships
	}

	t.Run("burst", func(t *testing.T) {
		resetSeedCache()
		conns := make([]net.Conn, n)
		for i := range conns {
			conns[i] = dial()
		}
		if ships := handshakeAll(t, conns); ships != 1 {
			t.Fatalf("%d connections shipped %d bodies, want 1 ship and %d hits", n, ships, n-1)
		}
		if seedCacheGet(fp) == nil {
			t.Fatal("seed not resident after the burst")
		}
	})

	t.Run("owner-dies", func(t *testing.T) {
		resetSeedCache()
		offer := &Hello{Role: "coordinator", SeedFP: fp}
		// The owner is told to ship and never does.
		owner := dial()
		if err := WriteFrame(owner, FrameHello, offer); err != nil {
			t.Fatal(err)
		}
		var h Hello
		if err := ReadExpect(owner, FrameHello, &h); err != nil || h.SeedFP != 0 {
			t.Fatalf("owner's offer into an empty cache: worker holds %016x, err %v; want a miss", h.SeedFP, err)
		}
		// A second connection's offer is held, not answered, while the
		// first one's install is pending: the write returns once the worker
		// has taken the frame off the (synchronous) pipe, and no Hello
		// follows.
		waiter := dial()
		if err := WriteFrame(waiter, FrameHello, offer); err != nil {
			t.Fatal(err)
		}
		waiter.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if _, _, err := ReadFrame(waiter); err == nil {
			t.Fatal("offer answered while another connection's install was pending")
		}
		waiter.SetReadDeadline(time.Time{})
		// More offers pile up behind the same pending install, then the
		// owner goes away: exactly one of the rest ships.
		conns := make([]net.Conn, n-2)
		for i := range conns {
			conns[i] = dial()
		}
		done := make(chan int)
		go func() { done <- handshakeAll(t, conns) }()
		owner.Close()
		if err := ReadExpect(waiter, FrameHello, &h); err != nil {
			t.Fatal(err)
		}
		ships := 0
		if h.SeedFP == 0 {
			// The held connection took the install over; the rest now wait
			// on it.
			if err := codec.WriteFrame(waiter, byte(FrameSeed), body); err != nil {
				t.Fatal(err)
			}
			if err := ReadExpect(waiter, FrameHello, &h); err != nil || h.SeedFP != fp {
				t.Fatalf("install confirmation: worker holds %016x, err %v", h.SeedFP, err)
			}
			ships++
		}
		ships += <-done
		if ships != 1 {
			t.Fatalf("after the owner died the body shipped %d times, want 1", ships)
		}
		if seedCacheGet(fp) == nil {
			t.Fatal("seed not resident after the take-over")
		}
		seedMu.Lock()
		pending := len(seedPending)
		seedMu.Unlock()
		if pending != 0 {
			t.Fatalf("%d installs still pending after every connection settled", pending)
		}
	})
}

// TestSessionCloseEvictsSeed: a session's warm counter leaves the
// process-wide seed cache with the session, so a process that ran one
// does not keep its count layer alive — and the next session on the same
// pair pre-installs its own and still ships nothing to same-process
// workers.
func TestSessionCloseEvictsSeed(t *testing.T) {
	resetSeedCache()
	fx := newDistFixture(t, 3, 0)
	for round := 1; round <= 2; round++ {
		sess, err := NewSession(Loopback{}, fx.pair, Options{Train: fx.train, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := sess.Run(fx.plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAlignment(t, res, fx.ref, fx.plan)
		fp := sess.seedFP
		if e := seedCacheGet(fp); e == nil || e.counter != sess.seedBase {
			t.Fatalf("session %d: its counter is not the resident seed while it is open", round)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if seedCacheGet(fp) != nil {
			t.Fatalf("session %d: seed still resident after Close", round)
		}
		if m := sess.Metrics(); m.SeedShips != 0 || m.SeedBytes != 0 {
			t.Fatalf("session %d: %d ships, %d seed bytes; want none", round, m.SeedShips, m.SeedBytes)
		}
	}

	// An entry somebody else put under the fingerprint is not the
	// session's to evict.
	sess, err := NewSession(Loopback{}, fx.pair, Options{Train: fx.train, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Run(fx.plan, nil); err != nil {
		t.Fatal(err)
	}
	other := &seedEntry{counter: fx.base}
	seedCachePut(sess.seedFP, other)
	sess.Close()
	if seedCacheGet(sess.seedFP) != other {
		t.Fatal("Close evicted an entry another session installed")
	}
	resetSeedCache()
}

// benchDefaultSeed is the seed every shard_subproc op of the repository
// benchmark ships: the pair of its `default` preset (bench/config.go —
// PaperShape with more posts per user) at seed 101.
func benchDefaultSeed(b *testing.B) *WireSeed {
	b.Helper()
	cfg := datagen.PaperShape()
	cfg.Seed, cfg.PostsPerUser1, cfg.PostsPerUser2 = 101, 10, 6
	pair, err := datagen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	_, body, _, err := buildSeed(pair, nil, TrainConfig{FeatureSet: FeaturesFull}, 0)
	if err != nil {
		b.Fatal(err)
	}
	resetSeedCache()
	var ws WireSeed
	if err := ws.decodeBody(body); err != nil {
		b.Fatal(err)
	}
	return &ws
}

// BenchmarkSeedCodec times the two halves of shipping the default pair's
// real seed: the coordinator's encode and one worker's decode.
func BenchmarkSeedCodec(b *testing.B) {
	ws := benchDefaultSeed(b)
	body := ws.appendBody(nil)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body = ws.appendBody(nil)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out WireSeed
			if err := out.decodeBody(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSeedInstall is what a fresh worker process does with the
// default pair's seed between reading the frame and acking it: decode the
// body and install it (build the counter every job forks).
func BenchmarkSeedInstall(b *testing.B) {
	body := benchDefaultSeed(b).appendBody(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetSeedCache()
		var ws WireSeed
		if err := ws.decodeBody(body); err != nil {
			b.Fatal(err)
		}
		if _, err := installSeed(&ws); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	resetSeedCache()
	b.ReportMetric(float64(len(body)), "body-bytes")
}
