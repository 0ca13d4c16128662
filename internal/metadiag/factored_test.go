package metadiag

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// referenceFeatureMatrix is FeatureMatrix as it was while every feature
// was a materialised Proximity: one position probe into each count
// matrix per link, over that count's own marginals.
func referenceFeatureMatrix(prox []*Proximity, pairs []hetnet.Anchor, bias bool) *linalg.Dense {
	dim := len(prox)
	if bias {
		dim++
	}
	x := linalg.NewDense(len(pairs), dim)
	for k, l := range pairs {
		for feat, p := range prox {
			if cnt := p.Counts.At(l.I, l.J); cnt != 0 {
				if denom := p.RowSums[l.I] + p.ColSums[l.J]; denom > 0 {
					x.Set(k, feat, 2*cnt/denom)
				}
			}
		}
		if bias {
			x.Set(k, dim-1, 1)
		}
	}
	return x
}

// materialised evaluates every feature through Counter.Proximity — the
// replaced path, kept in production as the fallback and here as the
// reference.
func materialised(t *testing.T, c *Counter, feats []schema.Named) []*Proximity {
	t.Helper()
	prox := make([]*Proximity, len(feats))
	for k, f := range feats {
		p, err := c.Proximity(f.D)
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		if p.Counts == nil {
			t.Fatalf("%s: Counter.Proximity returned no count matrix", f.ID)
		}
		prox[k] = p
	}
	return prox
}

// pairSpace lists every link of an n1×n2 user pair space: every stored
// position of every count and every empty one — users with no follows,
// links in rows no labelled anchor reaches, columns outside a row's
// pattern.
func pairSpace(n1, n2 int) []hetnet.Anchor {
	pool := make([]hetnet.Anchor, 0, n1*n2)
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			pool = append(pool, hetnet.Anchor{I: i, J: j})
		}
	}
	return pool
}

// TestFactoredMatchesMaterialised: whatever the library, the labelled
// anchor set and the counter's origin, a factored feature's marginals,
// its score at every link of the pair space, and so the design matrix
// and every feature vector, are bit for bit those of the materialised
// count — at GOMAXPROCS 1 and 4.
func TestFactoredMatchesMaterialised(t *testing.T) {
	libs := []struct {
		name  string
		feats []schema.Named
		words int
	}{
		{"standard", schema.StandardLibrary().All(), 0},
		{"extended", schema.ExtendedLibrary().All(), 40},
		{"paths", schema.StandardLibrary().PathsOnly(), 0},
	}
	for _, seed := range []int64{1, 5, 9} {
		for _, lib := range libs {
			cfg := datagen.Tiny()
			cfg.Seed = seed
			if lib.words > 0 {
				cfg.Words, cfg.WordsPerPost = lib.words, 2
			}
			pair, err := datagen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, err := NewCounter(pair)
			if err != nil {
				t.Fatal(err)
			}
			exported, err := base.ExportSeed(lib.feats)
			if err != nil {
				t.Fatal(err)
			}
			seeded, err := NewSeededCounter(exported)
			if err != nil {
				t.Fatal(err)
			}
			anchors := append([]hetnet.Anchor(nil), pair.Anchors...)
			rand.New(rand.NewSource(seed)).Shuffle(len(anchors), func(i, j int) { anchors[i], anchors[j] = anchors[j], anchors[i] })
			fold := len(anchors) / 10
			pool := pairSpace(pair.G1.NodeCount(pair.AnchorType), pair.G2.NodeCount(pair.AnchorType))
			subsets := map[string][]hetnet.Anchor{
				"one anchor": anchors[:1], "one fold": anchors[:fold], "nine folds": anchors[fold:], "all": anchors,
			}
			for subset, labelled := range subsets {
				ref := base.Fork()
				ref.SetAnchors(labelled)
				prox := materialised(t, ref, lib.feats)
				want := referenceFeatureMatrix(prox, pool, true)
				for origin, c := range map[string]*Counter{"fork": base.Fork(), "seeded": seeded.Fork()} {
					name := fmt.Sprintf("seed %d/%s/%s/%s", seed, lib.name, subset, origin)
					c.SetAnchors(labelled)
					for _, procs := range []int{1, 4} {
						checkFactored(t, fmt.Sprintf("%s/procs %d", name, procs), c, lib.feats, prox, pool, want, procs)
					}
				}
			}
		}
	}
}

// checkFactored extracts feats from c at the given GOMAXPROCS and
// compares everything the extractor holds and returns with the
// materialised reference.
func checkFactored(t *testing.T, name string, c *Counter, feats []schema.Named, prox []*Proximity, pool []hetnet.Anchor, want *linalg.Dense, procs int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	e := NewExtractor(c, feats, true)
	if err := e.Recompute(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for k, f := range feats {
		if factored := e.prox[k].prod >= 0; factored != UsesAnchor(f.D) {
			t.Fatalf("%s: %s held factored: %v, though anchor-dependent: %v", name, f.ID, factored, UsesAnchor(f.D))
		}
		if !slices.Equal(e.prox[k].rowSums, prox[k].RowSums) {
			t.Fatalf("%s: %s row sums differ from the materialised count's", name, f.ID)
		}
		if !slices.Equal(e.prox[k].colSums, prox[k].ColSums) {
			t.Fatalf("%s: %s column sums differ from the materialised count's", name, f.ID)
		}
	}
	got, err := e.FeatureMatrix(pool)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !got.EqualApprox(want, 0) {
		t.Fatalf("%s: FeatureMatrix differs from the materialised fill", name)
	}
	vec := make([]float64, e.Dim())
	for k := 0; k < len(pool); k += 7 {
		l := pool[k]
		if err := e.FeatureVector(l.I, l.J, vec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(vec, []float64(got.RowView(k))) {
			t.Fatalf("%s: FeatureVector(%d,%d) differs from its FeatureMatrix row", name, l.I, l.J)
		}
		for feat, p := range prox {
			if vec[feat] != p.Score(l.I, l.J) {
				t.Fatalf("%s: %s scores %v at (%d,%d), Proximity.Score %v", name, feats[feat].ID, vec[feat], l.I, l.J, p.Score(l.I, l.J))
			}
		}
	}
	// Outside the pair space every diagram scores 0, as Proximity.Score does.
	rows, cols := prox[0].Counts.Dims()
	for _, l := range []hetnet.Anchor{{I: -1, J: 0}, {I: rows, J: 0}, {I: 0, J: cols}} {
		for k := range vec {
			vec[k] = 7
		}
		if err := e.FeatureVector(l.I, l.J, vec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if zeros := make([]float64, len(feats)); !slices.Equal(vec[:len(feats)], zeros) || vec[len(feats)] != 1 {
			t.Fatalf("%s: FeatureVector(%d,%d) outside the pair space = %v", name, l.I, l.J, vec)
		}
	}
}

// TestFactoredShapes is the shape table: every anchor-dependent family
// of the library factors, and a diagram off that shape — several anchor
// edges, an anchor at either end, a longer prefix, two anchor-using
// parts stacked, a wider stack — is counted through Counter.Proximity
// and still extracts what Counter.Count gives.
func TestFactoredShapes(t *testing.T) {
	for _, f := range schema.ExtendedLibrary().All() {
		if _, _, _, ok := factorise(f.D); ok != UsesAnchor(f.D) {
			t.Errorf("%s: factorise %v, anchor-dependent %v", f.ID, ok, UsesAnchor(f.D))
		}
	}
	if _, _, _, ok := factorise(schema.MustParsePath("user(1) -follow-> user(1) <-anchor-> user(2) <-anchor-> user(1)")); ok {
		t.Error("a path with two anchor edges factored")
	}
	p5 := schema.AttributePath(hetnet.At).AsDiagram()
	fallbacks := []schema.Named{
		{ID: "three anchors", D: schema.MustParsePath("user(1) -follow-> user(1) <-anchor-> user(2) <-anchor-> user(1) <-anchor-> user(2)")},
		{ID: "leading anchor", D: schema.MustParsePath("user(1) <-anchor-> user(2) <-follow- user(2)")},
		{ID: "trailing anchor", D: schema.MustParsePath("user(1) -follow-> user(1) <-anchor-> user(2)")},
		{ID: "three-part prefix", D: schema.MustParsePath("user(1) -follow-> user(1) <-follow- user(1) <-anchor-> user(2) <-follow- user(2)")},
		{ID: "two anchor-using parts", D: schema.Par(schema.FollowPath(1).AsDiagram(), schema.FollowPath(2).AsDiagram())},
		{ID: "wider stack", D: schema.Par(schema.FollowPath(1).AsDiagram(), p5, schema.AttributePath(hetnet.Checkin).AsDiagram())},
	}
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	c.SetAnchors(pair.Anchors[:len(pair.Anchors)/2])
	// P1 and a stacked family member ride along: one extractor holds both forms.
	feats := append([]schema.Named{{ID: "P1", D: schema.FollowPath(1)}, {ID: "PSI_FA[P1,P5]", D: schema.Par(schema.FollowPath(1).AsDiagram(), p5)}}, fallbacks...)
	e := NewExtractor(c, feats, false)
	if err := e.Recompute(); err != nil {
		t.Fatal(err)
	}
	for k, f := range feats {
		if factored, want := e.prox[k].prod >= 0, k < 2; factored != want {
			t.Errorf("%s held factored: %v, want %v", f.ID, factored, want)
			continue
		}
		if k < 2 {
			continue
		}
		counts, err := c.Count(f.D)
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		if e.counts[e.prox[k].stack] != counts {
			t.Errorf("%s: the extractor does not read Counter.Count's matrix", f.ID)
		}
	}
	pool := pairSpace(pair.G1.NodeCount(pair.AnchorType), pair.G2.NodeCount(pair.AnchorType))
	got, err := e.FeatureMatrix(pool)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(referenceFeatureMatrix(materialised(t, c, feats), pool, false), 0) {
		t.Error("mixed-form FeatureMatrix differs from the materialised fill")
	}
}

// TestFailedRecomputeLeavesNoProximities: a Recompute that fails must
// not leave the previous anchor set's proximities behind for
// FeatureMatrix to serve.
func TestFailedRecomputeLeavesNoProximities(t *testing.T) {
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
	c, err := NewSeededCounter(seed)
	if err != nil {
		t.Fatal(err)
	}
	pool := pair.Anchors
	e := NewExtractor(c, feats, true)
	c.SetAnchors(pair.Anchors[:10])
	if err := e.Recompute(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FeatureMatrix(pool); err != nil {
		t.Fatal(err)
	}
	lost := schema.AttributePath(hetnet.Checkin).Notation()
	c.sh.mu.Lock()
	delete(c.sh.counts, lost)
	c.sh.mu.Unlock()
	c.SetAnchors(pair.Anchors[10:20])
	if err := e.Recompute(); err == nil || !strings.Contains(err.Error(), lost) {
		t.Fatalf("Recompute without %q: %v", lost, err)
	}
	if x, err := e.FeatureMatrix(pool); err == nil || !strings.Contains(err.Error(), lost) {
		t.Fatalf("FeatureMatrix after a failed Recompute: %v, matrix %v — the first fold's proximities were served", err, x != nil)
	}
	if err := e.FeatureVector(0, 0, make([]float64, e.Dim())); err == nil {
		t.Fatal("FeatureVector after a failed Recompute served the first fold's proximities")
	}
}

// TestRecomputeCountsItsForms: the fused-versus-fallback scrape and the
// walked/stored split. Every Recompute of the standard library holds 28
// proximities factored and 3 materialised and calls no Hadamard. On one
// fold labelled three times, the first Recompute walks its products for
// the 17 distinct stackings' marginals (Ψ^{f²,a²}[P1,P2] and [P3,P4] are
// one), the second stores every anchor's terms without walking, and the
// third reads them and stores nothing more.
func TestRecomputeCountsItsForms(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	feats := schema.StandardLibrary().All()
	if err := c.Warm(feats); err != nil {
		t.Fatal(err)
	}
	walk := telemetry.Default.Counter("activeiter_marginal_walk_flops_total", "")
	scrape := func() (merge, rank string) {
		var buf bytes.Buffer
		if err := telemetry.Default.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `activeiter_hadamard_rows_total{regime="merge"} `); ok {
				merge = v
			}
			if v, ok := strings.CutPrefix(line, `activeiter_hadamard_rows_total{regime="rank"} `); ok {
				rank = v
			}
		}
		return merge, rank
	}
	merge0, rank0 := scrape()
	const fold, stackings = 10, 17
	c.SetAnchors(pair.Anchors[:fold])
	for n, want := range []struct {
		walked, stored, read int64
		walks, grows         bool
	}{
		{walked: fold * stackings, walks: true},
		{stored: fold * stackings, grows: true},
		{read: fold * stackings},
	} {
		fac0, mat0, walk0 := mProximitiesFactored.Value(), mProximitiesMaterialised.Value(), walk.Value()
		walked0, stored0, read0, bytes0 := mAnchorTermsWalked.Value(), mAnchorTermsStored.Value(), mAnchorTermsRead.Value(), mAnchorTermsBytes.Value()
		if err := NewExtractor(c, feats, true).Recompute(); err != nil {
			t.Fatal(err)
		}
		if fac, mat := mProximitiesFactored.Value()-fac0, mProximitiesMaterialised.Value()-mat0; fac != 28 || mat != 3 {
			t.Errorf("Recompute %d held %d proximities factored and %d materialised, want 28 and 3", n+1, fac, mat)
		}
		walked, stored, read := mAnchorTermsWalked.Value()-walked0, mAnchorTermsStored.Value()-stored0, mAnchorTermsRead.Value()-read0
		if walked != want.walked || stored != want.stored || read != want.read {
			t.Errorf("Recompute %d walked %d, stored %d and read %d anchor terms, want %d, %d and %d", n+1, walked, stored, read, want.walked, want.stored, want.read)
		}
		if walks := walk.Value() != walk0; walks != want.walks {
			t.Errorf("Recompute %d counted walk multiply-adds: %v, want %v", n+1, walks, want.walks)
		}
		if grows := mAnchorTermsBytes.Value() > bytes0; grows != want.grows {
			t.Errorf("Recompute %d grew the stored terms' bytes: %v, want %v", n+1, grows, want.grows)
		}
	}
	if merge, rank := scrape(); merge != merge0 || rank != rank0 {
		t.Errorf("Recompute on a warm counter stacked through Hadamard: rows %s/%s, before %s/%s", merge, rank, merge0, rank0)
	}
}
