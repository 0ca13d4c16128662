package isorank

import (
	"slices"
	"testing"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/sparse"
)

func TestAlignRecoversAnchorsUnsupervised(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Align(pair, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches")
	}
	truth := pair.AnchorSet()
	correct := 0
	for _, m := range res.Matches {
		if truth[hetnet.Key(m.I, m.J)] {
			correct++
		}
	}
	recallOfAnchors := float64(correct) / float64(len(pair.Anchors))
	// Unsupervised with attribute prior: expect meaningful but imperfect
	// recovery — far above random (1/64 per user) yet below ActiveIter.
	if recallOfAnchors < 0.15 {
		t.Errorf("unsupervised anchor recovery = %.2f (%d/%d), want ≥ 0.15",
			recallOfAnchors, correct, len(pair.Anchors))
	}
	// One-to-one holds.
	seenI, seenJ := map[int]bool{}, map[int]bool{}
	for _, m := range res.Matches {
		if seenI[m.I] || seenJ[m.J] {
			t.Fatal("matching violates one-to-one")
		}
		seenI[m.I] = true
		seenJ[m.J] = true
	}
	if res.Iterations == 0 {
		t.Error("no iterations recorded")
	}
}

// TestAlignReadsNoLabel: the unsupervised baseline returns the same
// similarity and matches whether the pair carries its anchors or none.
func TestAlignReadsNoLabel(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(pair.Anchors) == 0 {
		t.Fatal("fixture pair has no anchors")
	}
	unlabelled := *pair
	unlabelled.Anchors = nil
	with, err := Align(pair, Config{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Align(&unlabelled, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Similarity.Equal(without.Similarity) {
		t.Error("similarity depends on the pair's anchors")
	}
	if !slices.Equal(with.Matches, without.Matches) {
		t.Errorf("matches depend on the pair's anchors: %d vs %d links", len(with.Matches), len(without.Matches))
	}
}

func TestAlignDefaultsAndConvergence(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Very loose tolerance: must stop well before the cap.
	res, err := Align(pair, Config{Tol: 1, Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Errorf("loose tolerance should converge immediately, took %d", res.Iterations)
	}
	// Tight cap is respected.
	res2, err := Align(pair, Config{Iterations: 2, Tol: 1e-30})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Iterations != 2 {
		t.Errorf("iteration cap ignored: %d", res2.Iterations)
	}
}

func TestAlignEmptyNetworksFail(t *testing.T) {
	g1 := hetnet.NewSocialNetwork("a")
	g2 := hetnet.NewSocialNetwork("b")
	pair := hetnet.NewAlignedPair(g1, g2)
	if _, err := Align(pair, Config{}); err == nil {
		t.Error("empty networks should fail")
	}
}

func TestAlignUniformPriorFallback(t *testing.T) {
	// Networks with follows but zero posts: the attribute prior is empty
	// and the uniform fallback must kick in without errors.
	g1 := hetnet.NewSocialNetwork("a")
	g2 := hetnet.NewSocialNetwork("b")
	for _, g := range []*hetnet.Network{g1, g2} {
		for i := 0; i < 5; i++ {
			g.AddNode(hetnet.User, string(rune('a'+i)))
		}
		for i := 0; i < 4; i++ {
			if err := g.AddLink(hetnet.Follow, i, i+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	pair := hetnet.NewAlignedPair(g1, g2)
	res, err := Align(pair, Config{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Similarity.NNZ() == 0 {
		t.Error("similarity empty under uniform prior")
	}
}

func TestSimilarityIsNormalized(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Align(pair, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Similarity.Sum()
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("similarity mass = %v, want ≈ 1", sum)
	}
}

// referenceNormalizedUndirected is the operator as it was built before
// it reused the symmetrized pattern: binarize a copy, take row sums, and
// push every entry divided by its row sum through a Builder.
func referenceNormalizedUndirected(g *hetnet.Network) (*sparse.CSR, error) {
	adj, err := g.Adjacency(hetnet.Follow)
	if err != nil {
		return nil, err
	}
	sym := sparse.Add(adj, adj.T()).Binarize()
	rows := sym.RowSums()
	b := sparse.NewBuilder(sym.Rows(), sym.Cols())
	sym.Iterate(func(i, j int, v float64) {
		if rows[i] > 0 {
			b.Add(i, j, v/rows[i])
		}
	})
	return b.Build(), nil
}

// TestNormalizedUndirectedMatchesReference pins the Builder-free
// operator to the old construction entry for entry — the planner's plan
// fingerprints and the IsoRank baseline both sit on these floats — on
// generated graphs and on one with isolated users, a reciprocated follow
// and a duplicate edge.
func TestNormalizedUndirectedMatchesReference(t *testing.T) {
	var graphs []*hetnet.Network
	for _, cfg := range []datagen.Config{datagen.Tiny(), datagen.Small()} {
		pair, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, pair.G1, pair.G2)
	}
	odd := hetnet.NewSocialNetwork("odd")
	for i := 0; i < 6; i++ {
		odd.AddNode(hetnet.User, string(rune('a'+i)))
	}
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {1, 2}, {4, 2}} { // users 3 and 5 follow nobody and nobody follows them
		if err := odd.AddLink(hetnet.Follow, e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	graphs = append(graphs, odd)
	for _, g := range graphs {
		want, err := referenceNormalizedUndirected(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NormalizedUndirected(g)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: operator differs from the Builder construction (%v vs %v)", g.Name(), got, want)
		}
		if _, _, _, colIdx, val := got.Raw(); cap(colIdx) != len(colIdx) || cap(val) != len(val) {
			t.Errorf("%s: operator slices are not exactly sized", g.Name())
		}
	}
}
