package metadiag

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// checkAgainstWalk compares what a recomputed e holds — every feature's
// row and column sums — with the per-fold walk, and its design matrix
// over pool with the materialised fill, bit for bit.
func checkAgainstWalk(t *testing.T, name string, e *Extractor, pool []hetnet.Anchor) {
	t.Helper()
	wantRows, wantCols := referenceMarginals(e)
	for k, f := range e.feats {
		if !slices.Equal(e.prox[k].rowSums, wantRows[k]) {
			t.Fatalf("%s: %s row sums differ from the walk's", name, f.ID)
		}
		if !slices.Equal(e.prox[k].colSums, wantCols[k]) {
			t.Fatalf("%s: %s column sums differ from the walk's", name, f.ID)
		}
	}
	got, err := e.FeatureMatrix(pool)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := referenceFeatureMatrix(materialised(t, e.counter, e.feats), pool, e.bias); !got.EqualApprox(want, 0) {
		t.Fatalf("%s: FeatureMatrix differs from the materialised fill", name)
	}
}

// TestAnchorTermsMatchWalk drives a counter family through every way a
// fold's anchors can meet the stored layer — all new, all seen once, all
// stored, a mix, a set that is not one-to-one with a duplicate, the
// empty set and the pair's full set — and at every step holds the sums
// and the design matrix equal to the per-fold walk's. It does so on a
// pair-built counter over the standard library, where every preᵀ is a
// count the family already holds, and on a seeded one over P1 and one
// stacking on it, whose seed lacks P1's preᵀ, so the layer transposes.
func TestAnchorTermsMatchWalk(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	small := []schema.Named{
		{ID: "P1", D: schema.FollowPath(1)},
		{ID: "PSI_FA[P1,P5]", D: schema.Par(schema.FollowPath(1).AsDiagram(), schema.AttributePath(hetnet.At).AsDiagram())},
	}
	exported, err := base.ExportSeed(small)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := NewSeededCounter(exported)
	if err != nil {
		t.Fatal(err)
	}
	for _, origin := range []struct {
		name   string
		c      *Counter
		feats  []schema.Named
		shared bool
	}{
		{"pair-built", base, schema.StandardLibrary().All(), true},
		{"seeded", seeded, small, false},
	} {
		stepThroughAnchorSets(t, origin.name, origin.c, origin.feats, pair)
		terms := origin.c.sh.terms[0]
		for q, preT := range terms.transposes(origin.c) {
			if !preT.Equal(terms.pre[q].T()) {
				t.Errorf("%s: product %d's preᵀ is not pre's transpose", origin.name, q)
			}
			shared := false
			for _, m := range origin.c.sh.counts {
				shared = shared || m == preT
			}
			if shared != origin.shared {
				t.Errorf("%s: product %d's preᵀ is a count of the shared layer: %v, want %v", origin.name, q, shared, origin.shared)
			}
		}
	}
}

// stepThroughAnchorSets is TestAnchorTermsMatchWalk's walk over anchor
// sets on one counter.
func stepThroughAnchorSets(t *testing.T, name string, c *Counter, feats []schema.Named, pair *hetnet.AlignedPair) {
	t.Helper()
	anchors := append([]hetnet.Anchor(nil), pair.Anchors...)
	rand.New(rand.NewSource(3)).Shuffle(len(anchors), func(i, j int) { anchors[i], anchors[j] = anchors[j], anchors[i] })
	// anchors[15].I in a second anchor, and anchors[16] twice.
	tangled := append(append([]hetnet.Anchor(nil), anchors[15:25]...), hetnet.Anchor{I: anchors[15].I, J: anchors[30].J}, anchors[16])
	steps := []struct {
		name    string
		anchors []hetnet.Anchor
	}{
		{"cold", anchors[:10]},
		{"second sight", anchors[:10]},
		{"all stored", anchors[:10]},
		{"partly overlapping", anchors[5:20]},
		{"not one-to-one", tangled},
		{"not one-to-one again", tangled},
		{"empty", []hetnet.Anchor{}},
		{"nil", nil}, // the pair's full set on a pair-built counter, empty on a seeded one
	}
	pool := pairSpace(pair.G1.NodeCount(pair.AnchorType), pair.G2.NodeCount(pair.AnchorType))
	e := NewExtractor(c, feats, true)
	walked0, stored0, read0 := mAnchorTermsWalked.Value(), mAnchorTermsStored.Value(), mAnchorTermsRead.Value()
	for _, step := range steps {
		c.SetAnchors(step.anchors)
		if err := e.Recompute(); err != nil {
			t.Fatalf("%s/%s: %v", name, step.name, err)
		}
		checkAgainstWalk(t, name+"/"+step.name, e, pool)
	}
	if mAnchorTermsWalked.Value() == walked0 || mAnchorTermsStored.Value() == stored0 || mAnchorTermsRead.Value() == read0 {
		t.Errorf("%s: the steps walked %d, stored %d and read %d anchor terms; each path must be taken", name,
			mAnchorTermsWalked.Value()-walked0, mAnchorTermsStored.Value()-stored0, mAnchorTermsRead.Value()-read0)
	}
}

// TestAnchorTermsBytesLeaveWithTheFamily: the gauge counts the terms a
// family stores and drops them when the family is collected.
func TestAnchorTermsBytesLeaveWithTheFamily(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	collect := func() {
		for range 3 {
			runtime.GC()
			time.Sleep(10 * time.Millisecond) // finalizers run after the cycle
		}
	}
	collect()
	before := mAnchorTermsBytes.Value()
	func() {
		c, err := NewCounter(pair)
		if err != nil {
			t.Fatal(err)
		}
		e := NewExtractor(c, schema.StandardLibrary().All(), true)
		for range 2 {
			if err := e.Recompute(); err != nil {
				t.Fatal(err)
			}
		}
		if mAnchorTermsBytes.Value() <= before {
			t.Fatal("labelling the full set twice stored no terms")
		}
	}()
	for range 20 {
		if mAnchorTermsBytes.Value() == before {
			return
		}
		collect()
	}
	t.Errorf("gauge %d after the family was dropped, %d before it", mAnchorTermsBytes.Value(), before)
}

// recomputed is what one fork's Recompute leaves: every feature's sums
// and the design matrix over a pool.
type recomputed struct {
	rowSums, colSums [][]float64
	x                *linalg.Dense
}

func recomputeOn(c *Counter, anchors, pool []hetnet.Anchor) (recomputed, error) {
	c.SetAnchors(anchors)
	e := NewExtractor(c, schema.StandardLibrary().All(), true)
	if err := e.Recompute(); err != nil {
		return recomputed{}, err
	}
	var r recomputed
	for _, f := range e.prox {
		r.rowSums, r.colSums = append(r.rowSums, f.rowSums), append(r.colSums, f.colSums)
	}
	x, err := e.FeatureMatrix(pool)
	r.x = x
	return r, err
}

// TestAnchorTermsSharedByForks: four forks of one family recompute
// overlapping anchor sets at once, round after round, so they race to
// mark, store and read the same anchors' terms; every result equals a
// serial run's on another family.
func TestAnchorTermsSharedByForks(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]hetnet.Anchor, 4)
	for f := range sets {
		sets[f] = pair.Anchors[f*6 : f*6+16]
	}
	pool := pair.Anchors
	serialBase, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		want := make([]recomputed, len(sets))
		for f, s := range sets {
			if want[f], err = recomputeOn(serialBase.Fork(), s, pool); err != nil {
				t.Fatal(err)
			}
		}
		got, errs := make([]recomputed, len(sets)), make([]error, len(sets))
		var wg sync.WaitGroup
		for f, s := range sets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[f], errs[f] = recomputeOn(base.Fork(), s, pool)
			}()
		}
		wg.Wait()
		for f := range sets {
			if errs[f] != nil {
				t.Fatal(errs[f])
			}
			name := fmt.Sprintf("round %d fork %d", round, f)
			for k := range want[f].rowSums {
				if !slices.Equal(got[f].rowSums[k], want[f].rowSums[k]) || !slices.Equal(got[f].colSums[k], want[f].colSums[k]) {
					t.Fatalf("%s: feature %d sums differ from the serial run's", name, k)
				}
			}
			if !got[f].x.EqualApprox(want[f].x, 0) {
				t.Fatalf("%s: FeatureMatrix differs from the serial run's", name)
			}
		}
	}
}

// TestStackedCountsAreIntegral checks what the stored layer's exactness
// rests on (sparse/factored.go): on the standard library every pre, post
// and stacked count a factored feature reads, every stored anchor term
// and every stacked sum is an integer below 2⁵³, so float64 adds them
// exactly in any order.
func TestStackedCountsAreIntegral(t *testing.T) {
	pair, err := datagen.Generate(datagen.Small())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	integral := func(v float64) bool { return v == math.Trunc(v) && math.Abs(v) < 1<<53 }
	feats := schema.StandardLibrary().All()
	names := make(map[*sparse.CSR]string)
	for _, f := range feats {
		head, post, stacked, ok := factorise(f.D)
		if !ok {
			continue
		}
		for _, d := range []schema.Diagram{head.(schema.Series).Parts[0], post, stacked} {
			if d == nil {
				continue
			}
			m, err := c.Count(d)
			if err != nil {
				t.Fatal(err)
			}
			names[m] = d.Notation()
			m.Iterate(func(i, j int, v float64) {
				if !integral(v) {
					t.Fatalf("%s (in %s) holds %v at (%d,%d)", d.Notation(), f.ID, v, i, j)
				}
			})
		}
	}
	// The full set twice: every anchor's terms stored.
	e := NewExtractor(c, feats, true)
	for range 2 {
		c.SetAnchors(nil)
		if err := e.Recompute(); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.sh.terms) != 1 {
		t.Fatalf("%d stored layers for one library", len(c.sh.terms))
	}
	terms := c.sh.terms[0]
	preT := terms.transposes(c)
	stored := 0
	for a, slab := range terms.slabs {
		if slab == nil {
			t.Fatalf("anchor %v labelled twice holds no terms", a)
		}
		off := 0
		for q := range terms.pre {
			n := preT[q].RowNNZ(a.I) + terms.post[q].RowNNZ(a.J)
			for _, d := range terms.ds[q] {
				for _, v := range slab[off : off+n] {
					if !integral(v) {
						t.Fatalf("anchor %v: a term of (%s)·anchor·(%s) ⊙ %s is %v", a, names[terms.pre[q]], names[terms.post[q]], names[d], v)
					}
				}
				off, stored = off+n, stored+n
			}
		}
	}
	if stored == 0 {
		t.Fatal("no term stored")
	}
	for k, f := range e.prox {
		for _, v := range append(slices.Clone(f.rowSums), f.colSums...) {
			if !integral(v) {
				t.Fatalf("%s: a stacked sum is %v", feats[k].ID, v)
			}
		}
	}
}
