package metadiag

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

func TestCandidatesProposesTrueAnchors(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	// Train on the first quarter of anchors; the rest should surface
	// among the proposals.
	train := pair.Anchors[:10]
	hidden := pair.Anchors[10:]
	c.SetAnchors(train)
	cands, err := NewExtractor(c, schema.StandardLibrary().All(), true).Candidates(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates proposed")
	}
	inCands := make(map[int64]bool, len(cands))
	for _, a := range cands {
		inCands[hetnet.Key(a.I, a.J)] = true
	}
	// Training anchors must be excluded.
	for _, a := range train {
		if inCands[hetnet.Key(a.I, a.J)] {
			t.Errorf("training anchor %v proposed as candidate", a)
		}
	}
	// Recall of the candidate set over hidden anchors should be high.
	found := 0
	for _, a := range hidden {
		if inCands[hetnet.Key(a.I, a.J)] {
			found++
		}
	}
	recall := float64(found) / float64(len(hidden))
	if recall < 0.6 {
		t.Errorf("candidate recall = %.2f (%d/%d), want ≥ 0.6", recall, found, len(hidden))
	}
	// Candidate volume is bounded by ~2 sides × perUser × users.
	maxSize := 5 * (pair.G1.NodeCount(hetnet.User) + pair.G2.NodeCount(hetnet.User))
	if len(cands) > maxSize {
		t.Errorf("candidate count %d exceeds bound %d", len(cands), maxSize)
	}
}

func TestCandidatesSortedAndDeduplicated(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	c.SetAnchors(pair.Anchors[:10])
	cands, err := NewExtractor(c, schema.StandardLibrary().All(), true).Candidates(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for _, a := range cands {
		k := hetnet.Key(a.I, a.J)
		if seen[k] {
			t.Fatal("duplicate candidate")
		}
		seen[k] = true
	}
}

func TestCandidatesValidation(t *testing.T) {
	c := newTestCounter(t)
	if _, err := NewExtractor(c, schema.StandardLibrary().All(), true).Candidates(0); err == nil {
		t.Error("perUser 0 should fail")
	}
	if _, err := NewExtractor(c, nil, true).Candidates(3); err == nil {
		t.Error("empty feature list should fail")
	}
}

// referenceTotal is the total Extractor.Candidates replaced: one
// materialised score matrix per feature through Counter.Proximity, every
// anchor-dependent count built, summed by chained sparse.Add in library
// order.
func referenceTotal(t *testing.T, c *Counter, feats []schema.Named) *sparse.CSR {
	t.Helper()
	var total *sparse.CSR
	for _, f := range feats {
		prox, err := c.Proximity(f.D)
		if err != nil {
			t.Fatal(err)
		}
		r, cols := prox.Counts.Dims()
		b := sparse.NewBuilder(r, cols)
		prox.Counts.Iterate(func(i, j int, v float64) {
			if denom := prox.RowSums[i] + prox.ColSums[j]; denom > 0 {
				b.Add(i, j, 2*v/denom)
			}
		})
		if sm := b.Build(); total == nil {
			total = sm
		} else {
			total = sparse.Add(total, sm)
		}
	}
	return total
}

// referenceCandidates is the proposal Extractor.Candidates replaced:
// referenceTotal, then the known-anchor exclusion, row and column top-k
// and sort.
func referenceCandidates(t *testing.T, c *Counter, feats []schema.Named, perUser int) []hetnet.Anchor {
	t.Helper()
	total := referenceTotal(t, c, feats)
	known := make(map[int64]bool)
	c.anchor.Iterate(func(i, j int, v float64) { known[hetnet.Key(i, j)] = true })
	type scored struct {
		a hetnet.Anchor
		v float64
	}
	seen := make(map[int64]bool)
	var out []scored
	add := func(i, j int, v float64) {
		k := hetnet.Key(i, j)
		if known[k] || seen[k] {
			return
		}
		seen[k] = true
		out = append(out, scored{a: hetnet.Anchor{I: i, J: j}, v: v})
	}
	total.TopKPerRow(perUser).Iterate(add)
	total.T().TopKPerRow(perUser).Iterate(func(j, i int, v float64) { add(i, j, v) })
	sort.Slice(out, func(a, b int) bool {
		if out[a].v != out[b].v {
			return out[a].v > out[b].v
		}
		if out[a].a.I != out[b].a.I {
			return out[a].a.I < out[b].a.I
		}
		return out[a].a.J < out[b].a.J
	})
	anchors := make([]hetnet.Anchor, len(out))
	for k, s := range out {
		anchors[k] = s.a
	}
	return anchors
}

// TestCandidatesMatchReference: proposals read off the extractor's
// factored forms are, slice for slice, the proposals of the materialised
// per-feature score matrices — whatever the pair, the library, the
// labelled anchors and perUser — and every pair's total is the same
// float.
func TestCandidatesMatchReference(t *testing.T) {
	for _, preset := range []struct {
		name  string
		cfg   datagen.Config
		words int // the extended library's word vocabulary
	}{{"tiny", datagen.Tiny(), 40}, {"small", datagen.Small(), 200}} {
		for _, lib := range []struct {
			name     string
			lib      schema.Library
			extended bool
		}{{"standard", schema.StandardLibrary(), false}, {"extended", schema.ExtendedLibrary(), true}} {
			cfg := preset.cfg
			if lib.extended {
				cfg.Words, cfg.WordsPerPost = preset.words, 2
			}
			pair, err := datagen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, err := NewCounter(pair)
			if err != nil {
				t.Fatal(err)
			}
			fold := len(pair.Anchors) / 10
			for _, labelled := range [][]hetnet.Anchor{pair.Anchors[:fold], pair.Anchors[fold:]} {
				ref, c := base.Fork(), base.Fork()
				ref.SetAnchors(labelled)
				c.SetAnchors(labelled)
				ext := NewExtractor(c, lib.lib.All(), true)
				if err := ext.Recompute(); err != nil {
					t.Fatal(err)
				}
				if !ext.totals().Equal(referenceTotal(t, ref, lib.lib.All())) {
					t.Errorf("%s/%s/%d anchors: totals differ from the summed score matrices", preset.name, lib.name, len(labelled))
				}
				for _, perUser := range []int{1, 3, 5} {
					name := fmt.Sprintf("%s/%s/%d anchors/perUser %d", preset.name, lib.name, len(labelled), perUser)
					want := referenceCandidates(t, ref, lib.lib.All(), perUser)
					got, err := ext.Candidates(perUser)
					if err != nil {
						t.Fatal(err)
					}
					if len(want) == 0 {
						t.Fatalf("%s: the reference proposes nothing", name)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: %d candidates, the reference %d; they differ", name, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestCandidatesBuildNoFeatureCount: proposing leaves the fork's anchor
// layer as Recompute alone leaves it — the pre∘anchor heads of the
// factored features and the anchor edge they end in — and holds no
// library feature's count.
func TestCandidatesBuildNoFeatureCount(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	feats := schema.StandardLibrary().All()
	layer := func(propose bool) []string {
		c := base.Fork()
		c.SetAnchors(pair.Anchors[:10])
		ext := NewExtractor(c, feats, true)
		if propose {
			if _, err := ext.Candidates(5); err != nil {
				t.Fatal(err)
			}
		} else if err := ext.Recompute(); err != nil {
			t.Fatal(err)
		}
		heads := make(map[string]bool)
		for _, f := range ext.forms {
			if f.head != nil {
				heads[f.head.key] = true
				heads[f.head.d.(schema.Series).Parts[1].Notation()] = true // the anchor edge
			}
		}
		var keys []string
		for key := range c.counts {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, key := range keys {
			if !heads[key] {
				t.Errorf("propose %v: the anchor layer holds %q, no pre∘anchor head", propose, key)
			}
		}
		for _, f := range feats {
			if key := schema.Canonical(f.D).Notation(); slices.Contains(keys, key) {
				t.Errorf("propose %v: the anchor layer holds %s's count %q", propose, f.ID, key)
			}
		}
		return keys
	}
	recompute, propose := layer(false), layer(true)
	if len(propose) < 2 || !slices.Equal(propose, recompute) {
		t.Errorf("proposing leaves the anchor layer %q, Recompute alone %q", propose, recompute)
	}
}
