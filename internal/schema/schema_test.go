package schema

import (
	"slices"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
)

func TestSocialSchemaRelations(t *testing.T) {
	s := SocialSchema()
	src, dst, ok := s.Relation(hetnet.Follow)
	if !ok || src != hetnet.User || dst != hetnet.User {
		t.Errorf("follow = %s→%s,%v", src, dst, ok)
	}
	src, dst, ok = s.Relation(hetnet.Checkin)
	if !ok || src != hetnet.Post || dst != hetnet.Location {
		t.Errorf("checkin = %s→%s,%v", src, dst, ok)
	}
	if _, _, ok := s.Relation("bogus"); ok {
		t.Error("unknown relation should miss")
	}
	if !s.IsAttribute(hetnet.Location) || s.IsAttribute(hetnet.User) {
		t.Error("IsAttribute wrong")
	}
	rels := s.Relations()
	if len(rels) != 5 {
		t.Errorf("Relations = %v", rels)
	}
	for i := 1; i < len(rels); i++ {
		if rels[i] < rels[i-1] {
			t.Errorf("Relations not sorted: %v", rels)
		}
	}
	attrs := s.AttributeTypes()
	if len(attrs) != len(hetnet.AttributeTypes) || !slices.IsSorted(attrs) {
		t.Errorf("AttributeTypes = %v, want %v sorted", attrs, hetnet.AttributeTypes)
	}
}

func TestFromNetworks(t *testing.T) {
	g1 := hetnet.NewSocialNetwork("a")
	g2 := hetnet.NewSocialNetwork("b")
	s, err := FromNetworks(g1, g2, hetnet.AttributeTypes)
	if err != nil {
		t.Fatalf("FromNetworks: %v", err)
	}
	if _, _, ok := s.Relation(hetnet.Write); !ok {
		t.Error("write relation missing")
	}

	// Relation missing from g2.
	g3 := hetnet.NewNetwork("c")
	if err := g3.DeclareLink(hetnet.Follow, hetnet.User, hetnet.User); err != nil {
		t.Fatal(err)
	}
	if _, err := FromNetworks(g1, g3, nil); err == nil {
		t.Error("mismatched relation sets should fail")
	}
	if _, err := FromNetworks(g3, g1, nil); err == nil {
		t.Error("mismatched relation sets should fail (other side)")
	}

	// Conflicting endpoints.
	g4 := hetnet.NewNetwork("d")
	if err := g4.DeclareLink(hetnet.Follow, hetnet.User, hetnet.Post); err != nil {
		t.Fatal(err)
	}
	if _, err := FromNetworks(g3, g4, nil); err == nil {
		t.Error("conflicting endpoints should fail")
	}
}

func TestTypedNodeString(t *testing.T) {
	if got := User1().String(); got != "user(1)" {
		t.Errorf("User1 = %q", got)
	}
	if got := LocationT().String(); got != "location" {
		t.Errorf("LocationT = %q", got)
	}
}

// An edge is realized by its concrete endpoint's network: a shared
// attribute endpoint adopts its partner's, and the anchor belongs to
// neither network.
func TestEdgeNet(t *testing.T) {
	tests := []struct {
		name string
		e    Edge
		want NetworkRef
	}{
		{"follow net1", Fwd(hetnet.Follow, User1(), User1()), Net1},
		{"follow net2", Rev(hetnet.Follow, User2(), User2()), Net2},
		{"write rev net2", Rev(hetnet.Write, Post2(), User2()), Net2},
		{"at fwd from post", Fwd(hetnet.At, Post1(), TimestampT()), Net1},
		{"at rev from attribute", Rev(hetnet.At, TimestampT(), Post2()), Net2},
		{"anchor", AnchorEdge(User1(), User2()), SharedNet},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.e.Net(); got != tc.want {
				t.Errorf("Net(%s) = %s, want %s", tc.e.Notation(), got, tc.want)
			}
		})
	}
}

func TestEdgeValidation(t *testing.T) {
	s := SocialSchema()
	tests := []struct {
		name string
		e    Edge
		ok   bool
	}{
		{"follow fwd", Fwd(hetnet.Follow, User1(), User1()), true},
		{"follow rev", Rev(hetnet.Follow, User2(), User2()), true},
		{"write fwd", Fwd(hetnet.Write, User1(), Post1()), true},
		{"write wrong direction types", Fwd(hetnet.Write, Post1(), User1()), false},
		{"write rev", Rev(hetnet.Write, Post2(), User2()), true},
		{"at fwd", Fwd(hetnet.At, Post1(), TimestampT()), true},
		{"at rev", Rev(hetnet.At, TimestampT(), Post2()), true},
		{"anchor fwd", AnchorEdge(User1(), User2()), true},
		{"anchor rev", AnchorEdge(User2(), User1()), true},
		{"anchor bad types", Edge{Rel: Anchor, From: Post1(), To: Post2(), Forward: true}, false},
		{"unknown relation", Fwd("bogus", User1(), User1()), false},
		{"cross-network follow", Fwd(hetnet.Follow, User1(), User2()), false},
		{"attr with net tag", Fwd(hetnet.At, Post1(), TypedNode{Type: hetnet.Timestamp, Net: Net1}), false},
		{"user tagged shared", Fwd(hetnet.Follow, TypedNode{Type: hetnet.User, Net: SharedNet}, User1()), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.e.Validate(s)
			if (err == nil) != tc.ok {
				t.Errorf("Validate(%s) err=%v, want ok=%v", tc.e.Notation(), err, tc.ok)
			}
		})
	}
}

func TestSeriesValidation(t *testing.T) {
	s := SocialSchema()
	good := Seq(
		Fwd(hetnet.Write, User1(), Post1()),
		Fwd(hetnet.At, Post1(), TimestampT()),
	)
	if err := good.Validate(s); err != nil {
		t.Errorf("valid series failed: %v", err)
	}
	broken := Seq(
		Fwd(hetnet.Write, User1(), Post1()),
		Fwd(hetnet.Follow, User1(), User1()), // discontinuous
	)
	if err := broken.Validate(s); err == nil {
		t.Error("discontinuous series should fail")
	}
}

func TestParallelValidation(t *testing.T) {
	s := SocialSchema()
	good := Par(FollowPath(1).AsDiagram(), FollowPath(2).AsDiagram())
	if err := good.Validate(s); err != nil {
		t.Errorf("valid parallel failed: %v", err)
	}
	// Branch endpoints differ: P1 is user(1)→user(2), write edge is not.
	bad := Par(FollowPath(1).AsDiagram(), Seq(Fwd(hetnet.Write, User1(), Post1())))
	if err := bad.Validate(s); err == nil {
		t.Error("mismatched parallel endpoints should fail")
	}
}

func TestSeqParPanics(t *testing.T) {
	assertPanics(t, func() { Seq() })
	assertPanics(t, func() { Par(FollowPath(1).AsDiagram()) })
	assertPanics(t, func() { FollowPath(9) })
	assertPanics(t, func() { AttributePath(hetnet.Follow) })
	assertPanics(t, func() { AttributeDiagram(hetnet.At) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestFollowPathsMatchTableI(t *testing.T) {
	s := SocialSchema()
	// Spot-check directions per Table I. P1: U→U↔U←U; P2: U←U↔U→U.
	p1 := FollowPath(1)
	if err := p1.Validate(s); err != nil {
		t.Fatalf("P1: %v", err)
	}
	if !p1.Edges[0].Forward || p1.Edges[2].Forward {
		t.Errorf("P1 directions wrong: %s", p1.Notation())
	}
	p2 := FollowPath(2)
	if p2.Edges[0].Forward || !p2.Edges[2].Forward {
		t.Errorf("P2 directions wrong: %s", p2.Notation())
	}
	p3 := FollowPath(3)
	if !p3.Edges[0].Forward || !p3.Edges[2].Forward {
		t.Errorf("P3 directions wrong: %s", p3.Notation())
	}
	p4 := FollowPath(4)
	if p4.Edges[0].Forward || p4.Edges[2].Forward {
		t.Errorf("P4 directions wrong: %s", p4.Notation())
	}
	for i := 1; i <= 4; i++ {
		p := FollowPath(i)
		if !p.IsInterNetwork() {
			t.Errorf("P%d should be inter-network", i)
		}
		if p.Len() != 3 {
			t.Errorf("P%d length = %d, want 3", i, p.Len())
		}
	}
}

func TestAttributePaths(t *testing.T) {
	s := SocialSchema()
	p5 := AttributePath(hetnet.At)
	if err := p5.Validate(s); err != nil {
		t.Fatalf("P5: %v", err)
	}
	if p5.Len() != 4 || !p5.IsInterNetwork() {
		t.Errorf("P5 shape wrong: %s", p5.Notation())
	}
	if p5.Edges[1].To != TimestampT() {
		t.Errorf("P5 middle node = %s, want timestamp", p5.Edges[1].To)
	}
	p6 := AttributePath(hetnet.Checkin)
	if p6.Edges[1].To != LocationT() {
		t.Errorf("P6 middle node = %s", p6.Edges[1].To)
	}
	p7 := AttributePath(hetnet.Contains)
	if err := p7.Validate(s); err != nil {
		t.Errorf("P7 word path: %v", err)
	}
}

func TestStandardLibraryShape(t *testing.T) {
	lib := StandardLibrary()
	if len(lib.Paths) != 6 {
		t.Errorf("paths = %d, want 6", len(lib.Paths))
	}
	if len(lib.Diagrams) != 25 {
		t.Errorf("diagrams = %d, want 25 (6 f² + 1 a² + 8 f,a + 4 f,a² + 6 f²,a²)", len(lib.Diagrams))
	}
	if len(lib.All()) != 31 {
		t.Errorf("total = %d, want 31", len(lib.All()))
	}
	if err := lib.Validate(SocialSchema()); err != nil {
		t.Errorf("library validation: %v", err)
	}
	// All IDs unique.
	seen := make(map[string]bool)
	for _, n := range lib.All() {
		if seen[n.ID] {
			t.Errorf("duplicate feature ID %q", n.ID)
		}
		seen[n.ID] = true
	}
	if got := len(lib.PathsOnly()); got != 6 {
		t.Errorf("PathsOnly = %d", got)
	}
}

func TestCoveringSetOfPathIsSingleton(t *testing.T) {
	p1 := FollowPath(1)
	cover := CoveringSet(p1.AsDiagram())
	if len(cover) != 1 {
		t.Fatalf("cover size = %d, want 1", len(cover))
	}
	if cover[0].Notation() != p1.Notation() {
		t.Errorf("cover = %s, want %s", cover[0].Notation(), p1.Notation())
	}
}

func TestCoveringSetFollowDiagram(t *testing.T) {
	// C(Ψ^f²(P1×P2)) must be exactly {P1, P2} (Definition 7: the covering
	// set recovers the composing meta paths).
	d := FollowDiagram(1, 2)
	cover := CoveringSet(d)
	if len(cover) != 2 {
		t.Fatalf("cover size = %d, want 2", len(cover))
	}
	want := map[string]bool{
		FollowPath(1).Notation(): true,
		FollowPath(2).Notation(): true,
	}
	for _, p := range cover {
		if !want[p.Notation()] {
			t.Errorf("unexpected covering path %s", p.Notation())
		}
	}
}

func TestCoveringSetAttributeDiagram(t *testing.T) {
	d := AttributeDiagram(hetnet.At, hetnet.Checkin)
	cover := CoveringSet(d)
	if len(cover) != 2 {
		t.Fatalf("cover size = %d, want 2", len(cover))
	}
	want := map[string]bool{
		AttributePath(hetnet.At).Notation():      true,
		AttributePath(hetnet.Checkin).Notation(): true,
	}
	for _, p := range cover {
		if !want[p.Notation()] {
			t.Errorf("unexpected covering path %s", p.Notation())
		}
	}
}

func TestCoveringSetFullStack(t *testing.T) {
	// Ψ^{f²,a²}(P1×P2×P5×P6) covers exactly {P1, P2, P5, P6}.
	d := Par(FollowDiagram(1, 2), AttributeDiagram(hetnet.At, hetnet.Checkin))
	cover := CoveringSet(d)
	if len(cover) != 4 {
		t.Fatalf("cover size = %d, want 4", len(cover))
	}
}

func TestNotationMentionsStructure(t *testing.T) {
	d := FollowDiagram(1, 2)
	n := d.Notation()
	if !strings.Contains(n, "{") || !strings.Contains(n, "|") {
		t.Errorf("parallel notation missing braces: %s", n)
	}
	if !strings.Contains(n, "anchor") {
		t.Errorf("notation missing anchor: %s", n)
	}
}
