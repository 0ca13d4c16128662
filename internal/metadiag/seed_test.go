package metadiag

import (
	"reflect"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/schema"
)

// A counter seeded from another counter's export must count every
// feature bit-identically to a cold one — the property the distributed
// warm-fork path rests on — while evaluating strictly fewer
// sub-diagrams (the shared attribute-only layer arrives precomputed).
func TestSeedBitIdenticalAndWarm(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	feats := schema.StandardLibrary().All()
	exporter, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := exporter.ExportSeed(feats)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed.Entries) == 0 || seed.NNZ() == 0 {
		t.Fatalf("empty seed: %d entries, %d nnz", len(seed.Entries), seed.NNZ())
	}

	cold, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.SeedInto(seed); err != nil {
		t.Fatal(err)
	}
	anchors := pair.Anchors[:len(pair.Anchors)/2]
	cold.SetAnchors(anchors)
	warm.SetAnchors(anchors)
	for _, f := range feats {
		a, err := cold.Count(f.D)
		if err != nil {
			t.Fatal(err)
		}
		b, err := warm.Count(f.D)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("feature %s: seeded count differs from cold count", f.ID)
		}
	}
	if we, ce := warm.Stats().Evaluations, cold.Stats().Evaluations; we >= ce {
		t.Errorf("seeded counter evaluated %d sub-diagrams, cold %d — seed did not warm anything", we, ce)
	}
}

// The same counter must export byte-identical seeds (sorted keys,
// cached matrices) — the wire fingerprint and golden frames rely on it.
func TestSeedDeterministic(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	feats := schema.StandardLibrary().All()
	s1, err := c.ExportSeed(feats)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.ExportSeed(feats)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Entries) != len(s2.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(s1.Entries), len(s2.Entries))
	}
	for i := range s1.Entries {
		a, b := &s1.Entries[i], &s2.Entries[i]
		if a.Key != b.Key || a.Rows != b.Rows || a.Cols != b.Cols || len(a.Val) != len(b.Val) {
			t.Fatalf("entry %d differs: %q vs %q", i, a.Key, b.Key)
		}
	}
	// Every exported subtree must be anchor-free: exporting from a
	// counter with a different anchor set yields identical entries.
	c.SetAnchors(pair.Anchors[:len(pair.Anchors)/3])
	s3, err := c.ExportSeed(feats)
	if err != nil {
		t.Fatal(err)
	}
	if len(s3.Entries) != len(s1.Entries) {
		t.Fatalf("anchor set changed the seed: %d vs %d entries", len(s3.Entries), len(s1.Entries))
	}
	for i := range s1.Entries {
		if s1.Entries[i].Key != s3.Entries[i].Key || len(s1.Entries[i].Val) != len(s3.Entries[i].Val) {
			t.Fatalf("anchor set changed seed entry %d (%q)", i, s1.Entries[i].Key)
		}
	}
}

// SeedInto treats entries as hostile: structural corruption fails the
// install instead of poisoning the cache.
func TestSeedIntoRejectsCorruptEntry(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Seed{Entries: []SeedEntry{{
		Key: "X", Rows: 2, Cols: 2,
		RowPtr: []int{0, 1, 2}, ColIdx: []int{0, 5}, Val: []float64{1, 1},
	}}}
	err = c.SeedInto(bad)
	if err == nil || !strings.Contains(err.Error(), `seed entry "X"`) {
		t.Fatalf("corrupt entry accepted: %v", err)
	}
}

// Warm is the evaluation half of ExportSeed: after it the export
// evaluates nothing, a fork's recount evaluates only what traverses an
// anchor, and warming while forks count beside it changes no count.
func TestWarmIsTheEvaluationHalfOfExportSeed(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	feats := schema.StandardLibrary().All()
	base, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Warm(feats); err != nil {
		t.Fatal(err)
	}
	warmed := base.Stats().Evaluations
	if warmed == 0 {
		t.Fatal("Warm evaluated nothing on a cold counter")
	}
	seed, err := base.ExportSeed(feats)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Stats().Evaluations; got != warmed {
		t.Errorf("ExportSeed after Warm evaluated %d more sub-diagrams", got-warmed)
	}
	cold, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.ExportSeed(feats)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed.Entries) != len(want.Entries) {
		t.Fatalf("warmed export has %d entries, cold export %d", len(seed.Entries), len(want.Entries))
	}
	for i := range want.Entries {
		if seed.Entries[i].Key != want.Entries[i].Key || seed.NNZ() != want.NNZ() {
			t.Fatalf("entry %d: warmed export %q, cold export %q", i, seed.Entries[i].Key, want.Entries[i].Key)
		}
	}

	// Warm racing two forks' recounts: single-flight makes each shared
	// count one evaluation, whoever gets there first.
	racing, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	warmDone := make(chan error, 1)
	go func() { warmDone <- racing.Warm(feats) }()
	half := len(pair.Anchors) / 2
	forks := []*Counter{racing.Fork(), racing.Fork()}
	forks[0].SetAnchors(pair.Anchors[:half])
	forks[1].SetAnchors(pair.Anchors[half:])
	recounted := make(chan error, len(forks))
	for _, f := range forks {
		go func(f *Counter) { recounted <- NewExtractor(f, feats, true).Recompute() }(f)
	}
	for range forks {
		if err := <-recounted; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-warmDone; err != nil {
		t.Fatal(err)
	}
	shared := racing.Stats().Evaluations + forks[0].Stats().Evaluations + forks[1].Stats().Evaluations
	ref := cold.Fork()
	ref.SetAnchors(pair.Anchors[:half])
	if err := NewExtractor(ref, feats, true).Recompute(); err != nil {
		t.Fatal(err)
	}
	anchored := ref.Stats().Evaluations // the shared layer is warm: these all traverse an anchor
	if shared != warmed+2*anchored {
		t.Errorf("warm + two forks evaluated %d sub-diagrams, want %d shared + 2×%d anchored", shared, warmed, anchored)
	}
	for _, f := range feats {
		a, _ := ref.Count(f.D)
		b, _ := forks[0].Count(f.D)
		if !a.Equal(b) {
			t.Fatalf("feature %s: count raced against Warm differs", f.ID)
		}
	}
}

// A counter built from a seed is a counter: it holds no pair, re-exports
// exactly the seed it was built from (the same matrices, so the same
// arrays), and Warm on it evaluates nothing.
func TestSeededCounterReexportsItsSeed(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	feats := schema.StandardLibrary().All()
	base, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := base.ExportSeed(feats)
	if err != nil {
		t.Fatal(err)
	}
	if seed.N1 != 60 || seed.N2 != 64 || seed.AnchorType != pair.AnchorType || len(seed.Adjacency) == 0 {
		t.Fatalf("seed dimensions %d×%d of %q, %d adjacency entries", seed.N1, seed.N2, seed.AnchorType, len(seed.Adjacency))
	}
	c, err := NewSeededCounter(seed)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pair() != nil {
		t.Fatal("seeded counter holds a pair")
	}
	again, err := c.ExportSeed(feats)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, seed) {
		t.Fatal("a seeded counter re-exports a different seed")
	}
	if evals := c.Stats().Evaluations; evals != 0 {
		t.Fatalf("exporting from a seeded counter evaluated %d sub-diagrams", evals)
	}
}

// A matrix filed under another notation passes the install when its
// declared endpoints fit its shape, and is refused by the Count that
// reads it: the diagram's own endpoints say what shape it must have.
func TestSeededCounterRefusesMisfiledMatrix(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	feats := schema.StandardLibrary().All()
	base, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := base.ExportSeed(feats)
	if err != nil {
		t.Fatal(err)
	}
	f1 := schema.Fwd(hetnet.Follow, schema.User1(), schema.User1()).Notation()
	f2 := schema.Fwd(hetnet.Follow, schema.User2(), schema.User2()).Notation()
	bad := *seed
	bad.Adjacency = append([]SeedEntry(nil), seed.Adjacency...)
	var i1, i2 = -1, -1
	for i, e := range bad.Adjacency {
		switch e.Key {
		case f1:
			i1 = i
		case f2:
			i2 = i
		}
	}
	if i1 < 0 || i2 < 0 {
		t.Fatalf("seed lacks the follow adjacencies %q, %q", f1, f2)
	}
	bad.Adjacency[i1].Key, bad.Adjacency[i2].Key = f2, f1 // 60×60 under user(2)'s key and the reverse
	c, err := NewSeededCounter(&bad)
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	c.SetAnchors(pair.Anchors)
	var refused int
	for _, f := range feats {
		if _, err := c.Count(f.D); err != nil {
			if !strings.Contains(err.Error(), "60x60") && !strings.Contains(err.Error(), "64x64") {
				t.Fatalf("feature %s: %v", f.ID, err)
			}
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no Count refused the misfiled adjacency")
	}
}
