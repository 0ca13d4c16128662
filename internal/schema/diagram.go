package schema

import (
	"fmt"
	"slices"
	"strings"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// Diagram is an inter-network meta diagram (Definition 5): a typed
// pattern with a source and a sink node type, built from atomic edges by
// series and parallel composition. A meta path (Definition 4) is the
// special case with no Parallel nodes; the paper deliberately "misuses
// meta diagram to refer to both" and so do we.
type Diagram interface {
	// Source and Sink return the endpoint node types of the pattern.
	Source() TypedNode
	Sink() TypedNode
	// Validate checks the pattern against a schema.
	Validate(s *Schema) error
	// Notation renders the pattern in a compact algebraic form.
	Notation() string
}

// Edge is an atomic diagram: a single traversal of a relation. Forward
// traverses the relation in its declared direction (e.g. user→post for
// write); backward traverses it in reverse (post→user). The anchor
// relation is canonically oriented network 1 → network 2.
type Edge struct {
	Rel      hetnet.LinkType
	From, To TypedNode
	Forward  bool
}

// Fwd builds a forward edge traversal.
func Fwd(rel hetnet.LinkType, from, to TypedNode) Edge {
	return Edge{Rel: rel, From: from, To: to, Forward: true}
}

// Rev builds a backward (reverse) edge traversal.
func Rev(rel hetnet.LinkType, from, to TypedNode) Edge {
	return Edge{Rel: rel, From: from, To: to, Forward: false}
}

// AnchorEdge builds the undirected anchor traversal between user types.
// dir must be Net1→Net2 (forward) or Net2→Net1 (backward).
func AnchorEdge(from, to TypedNode) Edge {
	return Edge{Rel: Anchor, From: from, To: to, Forward: from.Net == Net1}
}

// Source implements Diagram.
func (e Edge) Source() TypedNode { return e.From }

// Sink implements Diagram.
func (e Edge) Sink() TypedNode { return e.To }

// Net returns which network's adjacency realizes this edge; anchor edges
// return SharedNet.
func (e Edge) Net() NetworkRef {
	if e.Rel == Anchor {
		return SharedNet
	}
	return edgeNet(e.From, e.To)
}

// Validate implements Diagram.
func (e Edge) Validate(s *Schema) error {
	if e.Rel == Anchor {
		okFwd := e.From == User1() && e.To == User2()
		okRev := e.From == User2() && e.To == User1()
		if !okFwd && !okRev {
			return fmt.Errorf("schema: anchor edge must join user(1) and user(2), got %s ↔ %s", e.From, e.To)
		}
		if okFwd != e.Forward {
			return fmt.Errorf("schema: anchor edge %s ↔ %s has inconsistent orientation flag", e.From, e.To)
		}
		return nil
	}
	src, dst, ok := s.Relation(e.Rel)
	if !ok {
		return fmt.Errorf("schema: unknown relation %q", e.Rel)
	}
	wantFrom, wantTo := src, dst
	if !e.Forward {
		wantFrom, wantTo = dst, src
	}
	if e.From.Type != wantFrom || e.To.Type != wantTo {
		return fmt.Errorf("schema: relation %q traversed %s→%s but declares %s→%s (forward=%v)",
			e.Rel, e.From.Type, e.To.Type, src, dst, e.Forward)
	}
	// Shared attribute endpoints must be flagged shared, concrete ones not.
	for _, n := range []TypedNode{e.From, e.To} {
		if s.IsAttribute(n.Type) != (n.Net == SharedNet) {
			return fmt.Errorf("schema: node %s has wrong network tag for attribute status", n)
		}
	}
	return validateEdgeNet(e.From, e.To)
}

// Notation implements Diagram.
func (e Edge) Notation() string {
	if e.Rel == Anchor {
		return e.From.String() + " <-anchor-> " + e.To.String()
	}
	if e.Forward {
		return e.From.String() + " -" + string(e.Rel) + "-> " + e.To.String()
	}
	return e.From.String() + " <-" + string(e.Rel) + "- " + e.To.String()
}

// Series is the sequential composition of diagrams: the sink of each part
// is the source of the next. Counting composes by sparse matrix product
// over the shared intermediate node type.
type Series struct {
	Parts []Diagram
}

// Seq builds a Series. It panics when called with no parts; endpoint
// consistency is checked by Validate.
func Seq(parts ...Diagram) Series {
	if len(parts) == 0 {
		panic("schema: Seq requires at least one part")
	}
	return Series{Parts: parts}
}

// Source implements Diagram.
func (d Series) Source() TypedNode { return d.Parts[0].Source() }

// Sink implements Diagram.
func (d Series) Sink() TypedNode { return d.Parts[len(d.Parts)-1].Sink() }

// Validate implements Diagram.
func (d Series) Validate(s *Schema) error {
	for i, p := range d.Parts {
		if err := p.Validate(s); err != nil {
			return err
		}
		if i > 0 && d.Parts[i-1].Sink() != p.Source() {
			return fmt.Errorf("schema: series break at part %d: %s does not continue from %s",
				i, p.Source(), d.Parts[i-1].Sink())
		}
	}
	return nil
}

// Notation implements Diagram.
func (d Series) Notation() string {
	parts := make([]string, len(d.Parts))
	for i, p := range d.Parts {
		parts[i] = p.Notation()
	}
	return strings.Join(parts, " ; ")
}

// Parallel is the parallel composition of diagrams sharing both source
// and sink: all branch patterns must be realized simultaneously between
// the same endpoint nodes. This is the paper's "stacking" operator ×.
// Counting composes by Hadamard product.
type Parallel struct {
	Parts []Diagram
}

// Par builds a Parallel composition. It panics when called with fewer
// than two parts.
func Par(parts ...Diagram) Parallel {
	if len(parts) < 2 {
		panic("schema: Par requires at least two parts")
	}
	return Parallel{Parts: parts}
}

// Source implements Diagram.
func (d Parallel) Source() TypedNode { return d.Parts[0].Source() }

// Sink implements Diagram.
func (d Parallel) Sink() TypedNode { return d.Parts[0].Sink() }

// Validate implements Diagram.
func (d Parallel) Validate(s *Schema) error {
	src, snk := d.Source(), d.Sink()
	for i, p := range d.Parts {
		if err := p.Validate(s); err != nil {
			return err
		}
		if p.Source() != src || p.Sink() != snk {
			return fmt.Errorf("schema: parallel branch %d has endpoints %s→%s, want %s→%s",
				i, p.Source(), p.Sink(), src, snk)
		}
	}
	return nil
}

// Notation implements Diagram.
func (d Parallel) Notation() string {
	parts := make([]string, len(d.Parts))
	for i, p := range d.Parts {
		parts[i] = p.Notation()
	}
	return "{" + strings.Join(parts, " | ") + "}"
}

// Canonical returns the one form that every diagram with d's count
// shares, so that its notation can key that count:
//   - a MetaPath becomes its Series, and a one-part Series or Parallel
//     its part — the same pattern written with a wrapper;
//   - nested Parallels are flattened and a Parallel's parts are sorted
//     by their canonical notation, because a Parallel counts as the
//     Hadamard product of its parts, which commutes and associates over
//     the exact integer counts;
//   - an Edge a Parallel repeats is kept once: an edge's count is 0/1
//     (adjacencies are binarized, anchors are distinct pairs), and
//     A ⊙ A = A only for 0/1 A, so any other repeated part stays.
//
// A Series keeps its grouping and only its parts are canonicalised:
// regrouping a product leaves the count but not the shape a counter
// reads to choose how to evaluate it.
func Canonical(d Diagram) Diagram {
	switch v := d.(type) {
	case MetaPath:
		return Canonical(v.toSeries())
	case Series:
		if len(v.Parts) == 1 {
			return Canonical(v.Parts[0])
		}
		parts := make([]Diagram, len(v.Parts))
		for i, p := range v.Parts {
			parts[i] = Canonical(p)
		}
		return Series{Parts: parts}
	case Parallel:
		type keyed struct {
			key string
			d   Diagram
		}
		var parts []keyed
		for _, p := range v.Parts {
			p = Canonical(p)
			inner, nested := p.(Parallel)
			if !nested {
				inner.Parts = []Diagram{p}
			}
			for _, q := range inner.Parts {
				parts = append(parts, keyed{q.Notation(), q})
			}
		}
		slices.SortStableFunc(parts, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
		var out Parallel
		for i, p := range parts {
			if _, isEdge := p.d.(Edge); !isEdge || i == 0 || p.key != parts[i-1].key {
				out.Parts = append(out.Parts, p.d)
			}
		}
		if len(out.Parts) == 1 {
			return out.Parts[0]
		}
		return out
	}
	return d
}

// MetaPath is a diagram that is a pure path: a sequence of edges. It is
// the unit of the covering set decomposition.
type MetaPath struct {
	Edges []Edge
}

// Source returns the path's first node type.
func (p MetaPath) Source() TypedNode { return p.Edges[0].From }

// Sink returns the path's last node type.
func (p MetaPath) Sink() TypedNode { return p.Edges[len(p.Edges)-1].To }

// Validate checks each edge and continuity.
func (p MetaPath) Validate(s *Schema) error {
	return p.toSeries().Validate(s)
}

// Notation renders the path edge by edge.
func (p MetaPath) Notation() string { return p.toSeries().Notation() }

// Len returns the path length (edge count), the paper's "length n−1".
func (p MetaPath) Len() int { return len(p.Edges) }

// IsInterNetwork reports whether the path connects users across networks
// (the paper restricts attention to N1, Nn ∈ {U(1),U(2)}, N1 ≠ Nn).
func (p MetaPath) IsInterNetwork() bool {
	s, t := p.Source(), p.Sink()
	return s.Type == hetnet.User && t.Type == hetnet.User && s.Net != t.Net && s.Net != SharedNet && t.Net != SharedNet
}

func (p MetaPath) toSeries() Series {
	parts := make([]Diagram, len(p.Edges))
	for i, e := range p.Edges {
		parts[i] = e
	}
	return Series{Parts: parts}
}

// AsDiagram converts the path to its Series form.
func (p MetaPath) AsDiagram() Diagram { return p.toSeries() }

// CoveringSet returns the meta diagram covering set C(Ψ) of Definition 7:
// the set of source→sink meta paths whose union covers every edge of the
// diagram. For a series-parallel pattern the minimum covering set is
// obtained by distributing parallel branches over series contexts, which
// is what this computes; for a pure path it is the singleton {path}.
func CoveringSet(d Diagram) []MetaPath {
	switch v := d.(type) {
	case Edge:
		return []MetaPath{{Edges: []Edge{v}}}
	case MetaPath:
		return []MetaPath{v}
	case Series:
		// Cross-product concatenation would enumerate all combinations;
		// the *minimum* cover instead zips branch paths positionally,
		// padding with the first branch. Example: Seq(a, Par(x,y), b) has
		// cover {a;x;b, a;y;b} (2 paths), not 1·2·1 enumerated combos —
		// both already cover every edge.
		partCovers := make([][]MetaPath, len(v.Parts))
		width := 1
		for i, p := range v.Parts {
			partCovers[i] = CoveringSet(p)
			if len(partCovers[i]) > width {
				width = len(partCovers[i])
			}
		}
		out := make([]MetaPath, width)
		for k := 0; k < width; k++ {
			var edges []Edge
			for i := range v.Parts {
				cover := partCovers[i]
				pick := cover[k%len(cover)]
				edges = append(edges, pick.Edges...)
			}
			out[k] = MetaPath{Edges: edges}
		}
		return dedupePaths(out)
	case Parallel:
		var out []MetaPath
		for _, p := range v.Parts {
			out = append(out, CoveringSet(p)...)
		}
		return dedupePaths(out)
	default:
		panic(fmt.Sprintf("schema: CoveringSet of unknown diagram type %T", d))
	}
}

func dedupePaths(ps []MetaPath) []MetaPath {
	seen := make(map[string]bool, len(ps))
	out := ps[:0]
	for _, p := range ps {
		key := p.Notation()
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}
