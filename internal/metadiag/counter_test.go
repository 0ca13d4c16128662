package metadiag

import (
	"testing"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// buildTestPair constructs a small aligned pair with hand-checkable
// counts.
//
// Network 1: users u0,u1,u2; follows u0→u1, u1→u0, u2→u0, u0→u2.
// Posts: p0 (by u0, at T0, checkin L0), p1 (by u1, at T0, checkin L1).
//
// Network 2: users v0,v1,v2; follows v0→v1, v1→v0, v2→v0.
// Posts: q1 (by v2, at T1, checkin L0), q2 (by v2, at T0, checkin L2),
// q0 (by v0, at T0, checkin L0) — inserted in this order so the two
// networks intern locations differently, exercising the joint-vocabulary
// remap.
//
// Anchors: (u0,v0), (u1,v1).
func buildTestPair(t *testing.T) *hetnet.AlignedPair {
	t.Helper()
	g1 := hetnet.NewSocialNetwork("net1")
	for _, u := range []string{"u0", "u1", "u2"} {
		g1.AddNode(hetnet.User, u)
	}
	for _, e := range [][2]string{{"u0", "u1"}, {"u1", "u0"}, {"u2", "u0"}, {"u0", "u2"}} {
		if err := g1.AddLinkByID(hetnet.Follow, e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	addPost := func(g *hetnet.Network, user, post, ts, loc string) {
		t.Helper()
		for _, step := range []struct {
			lt       hetnet.LinkType
			from, to string
		}{
			{hetnet.Write, user, post},
			{hetnet.At, post, ts},
			{hetnet.Checkin, post, loc},
		} {
			if err := g.AddLinkByID(step.lt, step.from, step.to); err != nil {
				t.Fatal(err)
			}
		}
	}
	addPost(g1, "u0", "p0", "T0", "L0")
	addPost(g1, "u1", "p1", "T0", "L1")

	g2 := hetnet.NewSocialNetwork("net2")
	for _, v := range []string{"v0", "v1", "v2"} {
		g2.AddNode(hetnet.User, v)
	}
	for _, e := range [][2]string{{"v0", "v1"}, {"v1", "v0"}, {"v2", "v0"}} {
		if err := g2.AddLinkByID(hetnet.Follow, e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	addPost(g2, "v2", "q1", "T1", "L0")
	addPost(g2, "v2", "q2", "T0", "L2")
	addPost(g2, "v0", "q0", "T0", "L0")

	pair := hetnet.NewAlignedPair(g1, g2)
	for _, a := range [][2]int{{0, 0}, {1, 1}} {
		if err := pair.AddAnchor(a[0], a[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	return pair
}

func newTestCounter(t *testing.T) *Counter {
	t.Helper()
	c, err := NewCounter(buildTestPair(t))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFollowPathCounts(t *testing.T) {
	c := newTestCounter(t)
	tests := []struct {
		name string
		d    schema.Diagram
		i, j int
		want float64
	}{
		// P1(i,j) = Σ_(x1,x2)∈A F1(i,x1)·F2(j,x2).
		{"P1(2,2) via (u0,v0)", schema.FollowPath(1).AsDiagram(), 2, 2, 1},
		{"P1(0,1) no instance", schema.FollowPath(1).AsDiagram(), 0, 1, 0},
		{"P1(0,0) via (u1,v1)", schema.FollowPath(1).AsDiagram(), 0, 0, 1},
		// P2(i,j) = Σ F1(x1,i)·F2(x2,j): u2 has follower u0 but v2 has none.
		{"P2(2,2) v2 has no anchored follower", schema.FollowPath(2).AsDiagram(), 2, 2, 0},
		{"P2(0,0) via (u1,v1) mutual", schema.FollowPath(2).AsDiagram(), 0, 0, 1},
		// P3(i,j) = Σ F1(i,x1)·F2(x2,j).
		{"P3(2,1) u2→u0, v0→v1", schema.FollowPath(3).AsDiagram(), 2, 1, 1},
		// P4(i,j) = Σ F1(x1,i)·F2(j,x2).
		{"P4(2,2) u0→u2 and v2→v0", schema.FollowPath(4).AsDiagram(), 2, 2, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m, err := c.Count(tc.d)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.At(tc.i, tc.j); got != tc.want {
				t.Errorf("count(%d,%d) = %v, want %v", tc.i, tc.j, got, tc.want)
			}
		})
	}
}

func TestAttributePathCounts(t *testing.T) {
	c := newTestCounter(t)
	p5, err := c.Count(schema.AttributePath(hetnet.At).AsDiagram())
	if err != nil {
		t.Fatal(err)
	}
	// Hand-enumerated common-timestamp pairs (see fixture comment).
	wantP5 := map[[2]int]float64{
		{0, 0}: 1, {0, 2}: 1, {1, 0}: 1, {1, 2}: 1,
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := wantP5[[2]int{i, j}]
			if got := p5.At(i, j); got != want {
				t.Errorf("P5(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}

	p6, err := c.Count(schema.AttributePath(hetnet.Checkin).AsDiagram())
	if err != nil {
		t.Fatal(err)
	}
	wantP6 := map[[2]int]float64{
		{0, 0}: 1, // p0(L0) with q0(L0)
		{0, 2}: 1, // p0(L0) with q1(L0)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := wantP6[[2]int{i, j}]
			if got := p6.At(i, j); got != want {
				t.Errorf("P6(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestFollowDiagramRequiresMutualPattern(t *testing.T) {
	c := newTestCounter(t)
	// Ψ^f²(P1×P2): both follow directions through the same anchor pair.
	m, err := c.Count(schema.FollowDiagram(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 0); got != 1 {
		t.Errorf("Ψ(0,0) = %v, want 1 (mutual u0↔u1, v0↔v1 via anchor (1,1))", got)
	}
	// u2↔u0 is mutual in net1 but v2→v0 is one-way: diagram must reject.
	if got := m.At(2, 2); got != 0 {
		t.Errorf("Ψ(2,2) = %v, want 0 (v2↔v0 not mutual)", got)
	}
	// Sanity: the single paths DO connect (2,2) — the diagram is stricter.
	p1, err := c.Count(schema.FollowPath(1).AsDiagram())
	if err != nil {
		t.Fatal(err)
	}
	if p1.At(2, 2) != 1 {
		t.Error("setup broken: P1(2,2) should be 1")
	}
}

func TestAttributeDiagramCatchesDislocation(t *testing.T) {
	c := newTestCounter(t)
	// The paper's motivating confound: u0 and v2 share a timestamp (p0/q2
	// both at T0) and share a location (p0/q1 both at L0) — but never in
	// the same post pair. Paths P5 and P6 both fire; Ψ^a² must not.
	psiA2, err := c.Count(schema.AttributeDiagram(hetnet.At, hetnet.Checkin))
	if err != nil {
		t.Fatal(err)
	}
	if got := psiA2.At(0, 2); got != 0 {
		t.Errorf("Ψ^a²(0,2) = %v, want 0 (dislocated attributes)", got)
	}
	// u0 and v0 share both through the same post pair (p0, q0).
	if got := psiA2.At(0, 0); got != 1 {
		t.Errorf("Ψ^a²(0,0) = %v, want 1", got)
	}
}

func TestEndpointJoinIsElementwiseProduct(t *testing.T) {
	c := newTestCounter(t)
	p1, err := c.Count(schema.FollowPath(1).AsDiagram())
	if err != nil {
		t.Fatal(err)
	}
	p5, err := c.Count(schema.AttributePath(hetnet.At).AsDiagram())
	if err != nil {
		t.Fatal(err)
	}
	joined, err := c.Count(schema.Par(schema.FollowPath(1).AsDiagram(), schema.AttributePath(hetnet.At).AsDiagram()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := p1.At(i, j) * p5.At(i, j)
			if got := joined.At(i, j); got != want {
				t.Errorf("Ψ^{f,a}(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestJointVocabularyRemap(t *testing.T) {
	c := newTestCounter(t)
	// Locations: net1 interns L0,L1; net2 interns L0,L2 (different local
	// orders). Joint vocabulary must have 3 locations.
	if got := c.VocabSize(hetnet.Location); got != 3 {
		t.Errorf("location vocab = %d, want 3", got)
	}
	if got := c.VocabSize(hetnet.Timestamp); got != 2 {
		t.Errorf("timestamp vocab = %d, want 2", got)
	}
	if got := c.VocabSize(hetnet.Word); got != 0 {
		t.Errorf("word vocab = %d, want 0", got)
	}
	// P6(0,2) = 1 relies on cross-network identity of "L0": if the remap
	// were positional instead of by ID this would break.
	p6, err := c.Count(schema.AttributePath(hetnet.Checkin).AsDiagram())
	if err != nil {
		t.Fatal(err)
	}
	if got := p6.At(0, 2); got != 1 {
		t.Errorf("P6(0,2) = %v, want 1 via shared L0", got)
	}
}

func TestSetAnchorsInvalidatesAnchorCounts(t *testing.T) {
	c := newTestCounter(t)
	psi := schema.FollowDiagram(1, 2)
	m, err := c.Count(psi)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 {
		t.Fatal("precondition: Ψ(0,0) = 1 with both anchors")
	}
	// Restrict to the (u0,v0) anchor only: the (0,0) instance used anchor
	// (u1,v1) and must disappear.
	c.SetAnchors([]hetnet.Anchor{{I: 0, J: 0}})
	m2, err := c.Count(psi)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.At(0, 0); got != 0 {
		t.Errorf("Ψ(0,0) after anchor restriction = %v, want 0", got)
	}
}

func TestAttributeCountsSurviveAnchorChange(t *testing.T) {
	c := newTestCounter(t)
	d := schema.AttributeDiagram(hetnet.At, hetnet.Checkin)
	if _, err := c.Count(d); err != nil {
		t.Fatal(err)
	}
	evalsBefore := c.Stats().Evaluations
	c.SetAnchors([]hetnet.Anchor{{I: 0, J: 0}})
	if _, err := c.Count(d); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Evaluations != evalsBefore {
		t.Errorf("attribute-only diagram was re-evaluated after SetAnchors: %d → %d evaluations",
			evalsBefore, after.Evaluations)
	}
	if after.CacheHits == 0 {
		t.Error("expected cache hit for attribute-only recount")
	}
}

func TestLemma2SubtreeReuse(t *testing.T) {
	c := newTestCounter(t)
	// Counting Ψ^a² first, then Ψ^{f,a²} containing it, must reuse the
	// cached Ψ^a² sub-result instead of recounting it.
	psiA2 := schema.AttributeDiagram(hetnet.At, hetnet.Checkin)
	if _, err := c.Count(psiA2); err != nil {
		t.Fatal(err)
	}
	statsBefore := c.Stats()
	big := schema.Par(schema.FollowPath(1).AsDiagram(), psiA2)
	if _, err := c.Count(big); err != nil {
		t.Fatal(err)
	}
	statsAfter := c.Stats()
	if statsAfter.CacheHits <= statsBefore.CacheHits {
		t.Error("expected subtree cache hits when counting the containing diagram")
	}
}

func TestUsesAnchor(t *testing.T) {
	if !UsesAnchor(schema.FollowPath(1).AsDiagram()) {
		t.Error("P1 uses the anchor")
	}
	if UsesAnchor(schema.AttributePath(hetnet.At).AsDiagram()) {
		t.Error("P5 does not use the anchor")
	}
	if !UsesAnchor(schema.Par(schema.FollowPath(1).AsDiagram(), schema.AttributePath(hetnet.At).AsDiagram())) {
		t.Error("parallel with anchored branch uses the anchor")
	}
}

func TestCountRejectsInvalidDiagram(t *testing.T) {
	c := newTestCounter(t)
	bad := schema.Fwd("bogus", schema.User1(), schema.User1())
	if _, err := c.Count(bad); err == nil {
		t.Error("invalid diagram should fail")
	}
}

func TestStandardLibraryCountsAll(t *testing.T) {
	c := newTestCounter(t)
	lib := schema.StandardLibrary()
	for _, n := range lib.All() {
		m, err := c.Count(n.D)
		if err != nil {
			t.Fatalf("%s: %v", n.ID, err)
		}
		if r, cc := m.Dims(); r != 3 || cc != 3 {
			t.Fatalf("%s: dims %dx%d, want 3x3", n.ID, r, cc)
		}
	}
}

// TestSelfStackedParallelIsItsPart: a Parallel of one notation stacked
// on itself — {follow→ | follow→} in Ψ^f²(P1×P3) — over a 0/1 part is
// that part, A ⊙ A = A, so the counter files the part's own matrix under
// the Parallel's key instead of building a copy. The count Equals the
// Hadamard product on a pair-built counter and on a counter seeded from
// its export; a self-stacked count that is not 0/1 is still multiplied.
func TestSelfStackedParallelIsItsPart(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	left, left3 := schema.FollowPath(1).Edges[0], schema.FollowPath(3).Edges[0]
	if left.Notation() != left3.Notation() {
		t.Fatal("fixture: P1 and P3 no longer start with the same edge")
	}
	self := schema.Par(left, left3)
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	part, err := c.Count(left)
	if err != nil {
		t.Fatal(err)
	}
	want := sparse.Hadamard(part, part)
	got, err := c.Count(self)
	if err != nil {
		t.Fatal(err)
	}
	if got != part || !got.Equal(want) {
		t.Fatalf("pair-built: %v is not its part %v, or differs from the Hadamard product %v", got, part, want)
	}
	seed, err := c.ExportSeed([]schema.Named{{ID: "PSI_F2[P1,P3]", D: schema.FollowDiagram(1, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := NewSeededCounter(seed)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := seeded.Count(self); err != nil || !got.Equal(want) {
		t.Fatalf("seeded: %v, %v; want the Hadamard product %v", got, err, want)
	}

	p5 := schema.AttributePath(hetnet.At).AsDiagram()
	m5, err := c.Count(p5)
	if err != nil {
		t.Fatal(err)
	}
	if m5.Sum() == float64(m5.NNZ()) {
		t.Fatal("fixture: P5 is 0/1 at tiny")
	}
	if sq, err := c.Count(schema.Par(p5, p5)); err != nil || sq == m5 || !sq.Equal(sparse.Hadamard(m5, m5)) {
		t.Fatalf("P5 stacked on itself: %v, %v; want the Hadamard product", sq, err)
	}
}
