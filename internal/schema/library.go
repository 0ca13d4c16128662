package schema

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// Named pairs a diagram with its paper identifier and semantics, e.g.
// P1 / "Common Anchored Followee" from Table I.
type Named struct {
	ID        string
	Semantics string
	D         Diagram
}

// followSegments returns the two follow segments (u1→x1 side, x2→u2
// side) of the follow meta path Pi for i ∈ {1,2,3,4}, encoding Table I:
//
//	P1: U →f U ↔ U ←f U   (followee / followee)
//	P2: U ←f U ↔ U →f U   (follower / follower)
//	P3: U →f U ↔ U →f U   (followee / follower)
//	P4: U ←f U ↔ U ←f U   (follower / followee)
//
// A "→f" on the left segment means the source user follows the anchored
// intermediate (Fwd); "←f" means the intermediate follows the source
// (Rev when traversed source→intermediate). Mirrored on the right.
func followSegments(i int) (left, right Edge) {
	switch i {
	case 1:
		return Fwd(hetnet.Follow, User1(), User1()), Rev(hetnet.Follow, User2(), User2())
	case 2:
		return Rev(hetnet.Follow, User1(), User1()), Fwd(hetnet.Follow, User2(), User2())
	case 3:
		return Fwd(hetnet.Follow, User1(), User1()), Fwd(hetnet.Follow, User2(), User2())
	case 4:
		return Rev(hetnet.Follow, User1(), User1()), Rev(hetnet.Follow, User2(), User2())
	default:
		panic(fmt.Sprintf("schema: follow path index %d out of range 1..4", i))
	}
}

// FollowPath returns the social meta path Pi (i ∈ 1..4) from Table I.
func FollowPath(i int) MetaPath {
	left, right := followSegments(i)
	return MetaPath{Edges: []Edge{left, AnchorEdge(User1(), User2()), right}}
}

// attrSegment returns the attribute round trip post(1)→attr→post(2) for
// the given attribute association relation (at or checkin or contains).
func attrSegment(rel hetnet.LinkType, attr TypedNode) Series {
	return Seq(
		Fwd(rel, Post1(), attr),
		Rev(rel, attr, Post2()),
	)
}

// AttributePath returns P5 (common timestamp), P6 (common check-in
// location) or the extension path P7 (common word) as a meta path
// U →write P →rel attr ←rel P ←write U.
func AttributePath(rel hetnet.LinkType) MetaPath {
	var attr TypedNode
	switch rel {
	case hetnet.At:
		attr = TimestampT()
	case hetnet.Checkin:
		attr = LocationT()
	case hetnet.Contains:
		attr = WordT()
	default:
		panic(fmt.Sprintf("schema: %q is not an attribute association relation", rel))
	}
	return MetaPath{Edges: []Edge{
		Fwd(hetnet.Write, User1(), Post1()),
		Fwd(rel, Post1(), attr),
		Rev(rel, attr, Post2()),
		Rev(hetnet.Write, Post2(), User2()),
	}}
}

// FollowDiagram returns Ψ^f²(Pi×Pj): the two follow paths stacked
// through the same anchored user pair — both follow patterns must hold
// between the same four users. Ψ1 in Table I is FollowDiagram(1, 2).
func FollowDiagram(i, j int) Diagram {
	li, ri := followSegments(i)
	lj, rj := followSegments(j)
	return Seq(
		Par(li, lj),
		AnchorEdge(User1(), User2()),
		Par(ri, rj),
	)
}

// AttributeDiagram returns Ψ^a²(P5×P6): one post from each user sharing
// both a timestamp and a location — the paper's fix for "dislocated"
// check-ins (Ψ2 in Table I). rels selects which attribute associations
// are stacked; the paper uses {at, checkin}.
func AttributeDiagram(rels ...hetnet.LinkType) Diagram {
	if len(rels) < 2 {
		panic("schema: AttributeDiagram needs at least two attribute relations")
	}
	branches := make([]Diagram, len(rels))
	for k, rel := range rels {
		var attr TypedNode
		switch rel {
		case hetnet.At:
			attr = TimestampT()
		case hetnet.Checkin:
			attr = LocationT()
		case hetnet.Contains:
			attr = WordT()
		default:
			panic(fmt.Sprintf("schema: %q is not an attribute association relation", rel))
		}
		branches[k] = attrSegment(rel, attr)
	}
	return Seq(
		Fwd(hetnet.Write, User1(), Post1()),
		Par(branches...),
		Rev(hetnet.Write, Post2(), User2()),
	)
}

// Library is the full feature diagram collection: Φ = P ∪ Ψ^f² ∪ Ψ^a² ∪
// Ψ^{f,a} ∪ Ψ^{f,a²} ∪ Ψ^{f²,a²} from Section III-B-2.
type Library struct {
	// Paths holds P1..P6 in order.
	Paths []Named
	// Diagrams holds the composite diagrams, grouped family by family.
	Diagrams []Named
}

// attrPathName maps an attribute association relation to its Table I
// path name (P5 = timestamps, P6 = locations) and the extension name P7
// for words.
func attrPathName(rel hetnet.LinkType) string {
	switch rel {
	case hetnet.At:
		return "P5"
	case hetnet.Checkin:
		return "P6"
	case hetnet.Contains:
		return "P7"
	default:
		panic(fmt.Sprintf("schema: %q is not an attribute association relation", rel))
	}
}

func attrPathSemantics(rel hetnet.LinkType) string {
	switch rel {
	case hetnet.At:
		return "Common Timestamp"
	case hetnet.Checkin:
		return "Common Checkin"
	case hetnet.Contains:
		return "Common Word"
	default:
		panic(fmt.Sprintf("schema: %q is not an attribute association relation", rel))
	}
}

// StandardLibrary builds the paper's complete feature set: 6 meta paths
// and 25 meta diagrams (6 Ψ^f² pairs + 1 Ψ^a² + 8 Ψ^{f,a} + 4 Ψ^{f,a²} +
// 6 Ψ^{f²,a²}), 31 features in total and 29 distinct counts: Ψ^f²[P1,P2]
// and [P3,P4] are one pattern (Canonical), and so are Ψ^{f²,a²}[P1,P2]
// and [P3,P4].
func StandardLibrary() Library {
	return NewLibrary(hetnet.At, hetnet.Checkin)
}

// ExtendedLibrary adds the word attribute the paper's data model
// carries but its evaluation does not use: P7 (common word) and the
// diagram families over all three attribute relations — 58 features,
// 54 distinct counts (Ψ^f²'s equal pair, and Ψ^{f²,a²}'s per attribute
// pair).
func ExtendedLibrary() Library {
	return NewLibrary(hetnet.At, hetnet.Checkin, hetnet.Contains)
}

// NewLibrary builds the feature library over the four follow paths and
// an arbitrary set of attribute association relations: the attribute
// paths, all Ψ^f² follow pairs, Ψ^a² for every unordered attribute
// pair, and the endpoint-join families Ψ^{f,a}, Ψ^{f,a²}, Ψ^{f²,a²}.
// It panics on unknown relations or fewer than one attribute relation.
func NewLibrary(attrRels ...hetnet.LinkType) Library {
	if len(attrRels) == 0 {
		panic("schema: NewLibrary needs at least one attribute relation")
	}
	var lib Library

	followSemantics := []string{
		"Common Anchored Followee",
		"Common Anchored Follower",
		"Common Anchored Followee-Follower",
		"Common Anchored Follower-Followee",
	}
	for i := 1; i <= 4; i++ {
		lib.Paths = append(lib.Paths, Named{
			ID:        fmt.Sprintf("P%d", i),
			Semantics: followSemantics[i-1],
			D:         FollowPath(i).AsDiagram(),
		})
	}
	for _, rel := range attrRels {
		lib.Paths = append(lib.Paths, Named{
			ID:        attrPathName(rel),
			Semantics: attrPathSemantics(rel),
			D:         AttributePath(rel).AsDiagram(),
		})
	}

	// Ψ^f²: unordered pairs of distinct follow paths; Pi×Pi degenerates
	// to Pi (binary adjacency), so only i<j is kept.
	for i := 1; i <= 4; i++ {
		for j := i + 1; j <= 4; j++ {
			lib.Diagrams = append(lib.Diagrams, Named{
				ID:        fmt.Sprintf("PSI_F2[P%d,P%d]", i, j),
				Semantics: "Common Aligned Neighbors",
				D:         FollowDiagram(i, j),
			})
		}
	}

	// Ψ^a²: every unordered pair of attribute relations stacked through
	// the same post pair.
	type a2entry struct {
		id string
		d  Diagram
	}
	var a2s []a2entry
	for x := 0; x < len(attrRels); x++ {
		for y := x + 1; y < len(attrRels); y++ {
			e := a2entry{
				id: fmt.Sprintf("PSI_A2[%s,%s]", attrPathName(attrRels[x]), attrPathName(attrRels[y])),
				d:  AttributeDiagram(attrRels[x], attrRels[y]),
			}
			a2s = append(a2s, e)
			lib.Diagrams = append(lib.Diagrams, Named{
				ID:        e.id,
				Semantics: "Common Attributes",
				D:         e.d,
			})
		}
	}

	// Ψ^{f,a}: follow path and attribute path sharing endpoints only.
	for i := 1; i <= 4; i++ {
		for _, rel := range attrRels {
			lib.Diagrams = append(lib.Diagrams, Named{
				ID:        fmt.Sprintf("PSI_FA[P%d,%s]", i, attrPathName(rel)),
				Semantics: "Common Aligned Neighbor & Attribute",
				D:         Par(FollowPath(i).AsDiagram(), AttributePath(rel).AsDiagram()),
			})
		}
	}

	// Ψ^{f,a²}: follow path stacked with each joint attribute diagram.
	// Ψ3 in Table I is the i=1, (P5,P6) member.
	for i := 1; i <= 4; i++ {
		for _, e := range a2s {
			id := fmt.Sprintf("PSI_FA2[P%d]", i)
			if len(a2s) > 1 {
				id = fmt.Sprintf("PSI_FA2[P%d,%s]", i, e.id[len("PSI_A2["):len(e.id)-1])
			}
			lib.Diagrams = append(lib.Diagrams, Named{
				ID:        id,
				Semantics: "Common Aligned Neighbor & Attributes",
				D:         Par(FollowPath(i).AsDiagram(), e.d),
			})
		}
	}

	// Ψ^{f²,a²}: follow pair diagram stacked with each attribute
	// diagram.
	for i := 1; i <= 4; i++ {
		for j := i + 1; j <= 4; j++ {
			for _, e := range a2s {
				id := fmt.Sprintf("PSI_F2A2[P%d,P%d]", i, j)
				if len(a2s) > 1 {
					id = fmt.Sprintf("PSI_F2A2[P%d,P%d,%s]", i, j, e.id[len("PSI_A2["):len(e.id)-1])
				}
				lib.Diagrams = append(lib.Diagrams, Named{
					ID:        id,
					Semantics: "Common Aligned Neighbors & Attributes",
					D:         Par(FollowDiagram(i, j), e.d),
				})
			}
		}
	}

	return lib
}

// All returns paths then diagrams as one slice; its order defines the
// feature vector layout used across the system.
func (l Library) All() []Named {
	out := make([]Named, 0, len(l.Paths)+len(l.Diagrams))
	out = append(out, l.Paths...)
	out = append(out, l.Diagrams...)
	return out
}

// PathsOnly returns just the meta paths (the SVM-MP feature set).
func (l Library) PathsOnly() []Named {
	out := make([]Named, len(l.Paths))
	copy(out, l.Paths)
	return out
}

// Validate checks every member against the schema.
func (l Library) Validate(s *Schema) error {
	for _, n := range l.All() {
		if err := n.D.Validate(s); err != nil {
			return fmt.Errorf("schema: library member %s invalid: %w", n.ID, err)
		}
	}
	return nil
}
