package schema

import (
	"reflect"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// TestCanonical: diagrams with one count share one canonical form, and
// diagrams whose counts may differ keep apart.
func TestCanonical(t *testing.T) {
	fwd := Fwd(hetnet.Follow, User1(), User1())
	rev := Rev(hetnet.Follow, User1(), User1())
	p1, p2 := FollowPath(1).AsDiagram(), FollowPath(2).AsDiagram()
	p5 := AttributePath(hetnet.At).AsDiagram()
	for _, tc := range []struct {
		name string
		a, b Diagram
		same bool
	}{
		{"parallel commutes", Par(fwd, rev), Par(rev, fwd), true},
		{"a mutual follow at each end", FollowDiagram(1, 2), FollowDiagram(3, 4), true},
		{"Ψ^{f²,a²} over one pattern", Par(FollowDiagram(1, 2), AttributeDiagram(hetnet.At, hetnet.Checkin)),
			Par(AttributeDiagram(hetnet.At, hetnet.Checkin), FollowDiagram(3, 4)), true},
		{"a repeated edge is the edge", Par(fwd, fwd), fwd, true},
		{"nested parallels flatten", Par(p1, Par(p2, p5)), Par(p5, p2, p1), true},
		{"a meta path is its series", AttributePath(hetnet.At), p5, true},
		{"one-part wrappers are their part", Series{Parts: []Diagram{Parallel{Parts: []Diagram{fwd}}}}, fwd, true},
		{"a repeated non-edge stays", Par(p5, p5), p5, false},
		{"different follow pairs", FollowDiagram(1, 3), FollowDiagram(2, 4), false},
		{"series order is the pattern", Seq(fwd, rev), Seq(rev, fwd), false},
	} {
		ca, cb := Canonical(tc.a), Canonical(tc.b)
		if same := reflect.DeepEqual(ca, cb); same != tc.same {
			t.Errorf("%s: %q and %q equal = %v, want %v", tc.name, ca.Notation(), cb.Notation(), same, tc.same)
		}
		if !reflect.DeepEqual(Canonical(ca), ca) {
			t.Errorf("%s: Canonical is not idempotent on %q", tc.name, ca.Notation())
		}
	}
	if sq, ok := Canonical(Par(p5, p5)).(Parallel); !ok || len(sq.Parts) != 2 {
		t.Errorf("{P5|P5} canonicalised to %q, want a two-part Parallel", Canonical(Par(p5, p5)).Notation())
	}
}

// TestLibraryDistinctCanonicalForms: the standard library's 31 features
// have 29 distinct counts (Ψ^f²[P1,P2] ≡ [P3,P4] and Ψ^{f²,a²}[P1,P2] ≡
// [P3,P4]); the extended library's 58 have 54.
func TestLibraryDistinctCanonicalForms(t *testing.T) {
	for _, tc := range []struct {
		name            string
		lib             Library
		feats, distinct int
	}{
		{"standard", StandardLibrary(), 31, 29},
		{"extended", ExtendedLibrary(), 58, 54},
	} {
		forms := make(map[string]bool)
		for _, n := range tc.lib.All() {
			forms[Canonical(n.D).Notation()] = true
		}
		if got := len(tc.lib.All()); got != tc.feats || len(forms) != tc.distinct {
			t.Errorf("%s: %d features, %d distinct forms; want %d, %d", tc.name, got, len(forms), tc.feats, tc.distinct)
		}
	}
}
