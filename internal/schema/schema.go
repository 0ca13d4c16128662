// Package schema formalizes the aligned network schema (Definition 3),
// inter-network meta paths (Definition 4) and inter-network meta diagrams
// (Definition 5) of the paper, together with the meta diagram covering
// set machinery of Definition 7.
//
// A meta diagram is represented as a series-parallel composition of typed
// edges between a source and a sink node type. Every diagram in the
// paper's Table I — and every member of the Ψ families in Section
// III-B-2 — is series-parallel:
//
//   - a meta path is a Series of edges;
//   - stacking paths that share all intermediate nodes (Ψ^f² through the
//     anchor pair, Ψ^a² through the post pair) is a Parallel composition
//     of the differing segments inside a Series;
//   - stacking paths that share only the endpoint users (Ψ^{f,a} etc.)
//     is a top-level Parallel composition.
//
// The series-parallel structure is what makes instance counting
// polynomial: Series composes counts by sparse matrix product over the
// shared middle node type, Parallel by elementwise (Hadamard) product
// over the shared endpoints. Package metadiag evaluates these plans.
package schema

import (
	"fmt"
	"slices"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// Anchor is the distinguished inter-network relation connecting the
// shared users (Definition 3's {anchor} component). It is undirected in
// the paper; we canonically orient it from network 1 to network 2 and
// record traversal direction per edge.
const Anchor hetnet.LinkType = "anchor"

// NetworkRef says which side of the aligned pair a node type instance
// belongs to. Attribute node types are shared between the networks
// (SharedNet), matching the paper's convention that attribute types carry
// no network superscript.
type NetworkRef int

const (
	// SharedNet marks attribute node types common to both networks.
	SharedNet NetworkRef = 0
	// Net1 marks node types of the first network (e.g. Twitter).
	Net1 NetworkRef = 1
	// Net2 marks node types of the second network (e.g. Foursquare).
	Net2 NetworkRef = 2
)

func (n NetworkRef) String() string {
	switch n {
	case Net1:
		return "1"
	case Net2:
		return "2"
	default:
		return "s"
	}
}

// TypedNode is a node type tagged with its network: U⁽¹⁾, P⁽²⁾,
// Timestamp, ... — the vertices of meta paths and diagrams.
type TypedNode struct {
	Type hetnet.NodeType
	Net  NetworkRef
}

// String renders e.g. "user(1)" or "timestamp". Plain concatenation:
// this renders inside Notation on the counting hot path, where fmt
// formatting showed up as ~20% of cold-count CPU.
func (t TypedNode) String() string {
	switch t.Net {
	case Net1:
		return string(t.Type) + "(1)"
	case Net2:
		return string(t.Type) + "(2)"
	default:
		return string(t.Type)
	}
}

// Convenience constructors for the standard social schema.
func User1() TypedNode { return TypedNode{Type: hetnet.User, Net: Net1} }
func User2() TypedNode { return TypedNode{Type: hetnet.User, Net: Net2} }
func Post1() TypedNode { return TypedNode{Type: hetnet.Post, Net: Net1} }
func Post2() TypedNode { return TypedNode{Type: hetnet.Post, Net: Net2} }
func TimestampT() TypedNode {
	return TypedNode{Type: hetnet.Timestamp, Net: SharedNet}
}
func LocationT() TypedNode { return TypedNode{Type: hetnet.Location, Net: SharedNet} }
func WordT() TypedNode     { return TypedNode{Type: hetnet.Word, Net: SharedNet} }

// Schema is the aligned social network schema S_G (Definition 3): the
// relation set R with endpoint node types, shared by both networks, plus
// the anchor relation between the user types.
type Schema struct {
	relations map[hetnet.LinkType][2]hetnet.NodeType
	attrTypes map[hetnet.NodeType]bool
}

// NewSchema builds a schema from explicit relation declarations and the
// set of attribute (shared) node types.
func NewSchema(relations map[hetnet.LinkType][2]hetnet.NodeType, attrTypes []hetnet.NodeType) *Schema {
	s := &Schema{
		relations: make(map[hetnet.LinkType][2]hetnet.NodeType, len(relations)),
		attrTypes: make(map[hetnet.NodeType]bool, len(attrTypes)),
	}
	for lt, ep := range relations {
		s.relations[lt] = ep
	}
	for _, t := range attrTypes {
		s.attrTypes[t] = true
	}
	return s
}

// SocialSchema returns the paper's Figure 2 schema: follow, write, at,
// check-in (and contains for words), with Word/Location/Timestamp as
// shared attribute types.
func SocialSchema() *Schema {
	return NewSchema(map[hetnet.LinkType][2]hetnet.NodeType{
		hetnet.Follow:   {hetnet.User, hetnet.User},
		hetnet.Write:    {hetnet.User, hetnet.Post},
		hetnet.At:       {hetnet.Post, hetnet.Timestamp},
		hetnet.Checkin:  {hetnet.Post, hetnet.Location},
		hetnet.Contains: {hetnet.Post, hetnet.Word},
	}, hetnet.AttributeTypes)
}

// FromNetworks derives a schema from two concrete networks, verifying
// that they declare identical relation sets (the paper's setting: both
// Twitter and Foursquare instantiate the same schema).
func FromNetworks(g1, g2 *hetnet.Network, attrTypes []hetnet.NodeType) (*Schema, error) {
	rel := make(map[hetnet.LinkType][2]hetnet.NodeType)
	for _, lt := range g1.LinkTypes() {
		src, dst, _ := g1.LinkEndpoints(lt)
		s2, d2, ok := g2.LinkEndpoints(lt)
		if !ok {
			return nil, fmt.Errorf("schema: relation %q exists in %q but not in %q", lt, g1.Name(), g2.Name())
		}
		if s2 != src || d2 != dst {
			return nil, fmt.Errorf("schema: relation %q has endpoints %s→%s in %q but %s→%s in %q",
				lt, src, dst, g1.Name(), s2, d2, g2.Name())
		}
		rel[lt] = [2]hetnet.NodeType{src, dst}
	}
	for _, lt := range g2.LinkTypes() {
		if _, _, ok := g1.LinkEndpoints(lt); !ok {
			return nil, fmt.Errorf("schema: relation %q exists in %q but not in %q", lt, g2.Name(), g1.Name())
		}
	}
	return NewSchema(rel, attrTypes), nil
}

// Relation returns the declared endpoint node types of lt.
func (s *Schema) Relation(lt hetnet.LinkType) (src, dst hetnet.NodeType, ok bool) {
	ep, ok := s.relations[lt]
	if !ok {
		return "", "", false
	}
	return ep[0], ep[1], true
}

// IsAttribute reports whether t is a shared attribute node type.
func (s *Schema) IsAttribute(t hetnet.NodeType) bool { return s.attrTypes[t] }

// Relations returns the relation names in lexicographic order.
func (s *Schema) Relations() []hetnet.LinkType {
	out := make([]hetnet.LinkType, 0, len(s.relations))
	for lt := range s.relations {
		out = append(out, lt)
	}
	sortLinkTypes(out)
	return out
}

// AttributeTypes returns the shared attribute node types in
// lexicographic order.
func (s *Schema) AttributeTypes() []hetnet.NodeType {
	out := make([]hetnet.NodeType, 0, len(s.attrTypes))
	for t := range s.attrTypes {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

func sortLinkTypes(ls []hetnet.LinkType) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

// validateEdgeNet checks the network-consistency rule for a non-anchor
// edge: both endpoints live in the same network, where shared attribute
// endpoints adopt the network of their partner.
func validateEdgeNet(from, to TypedNode) error {
	if from.Net == SharedNet && to.Net == SharedNet {
		return fmt.Errorf("schema: edge between two shared attribute types %s and %s", from, to)
	}
	if from.Net != SharedNet && to.Net != SharedNet && from.Net != to.Net {
		return fmt.Errorf("schema: non-anchor edge crosses networks: %s to %s", from, to)
	}
	return nil
}

// edgeNet returns the network an edge belongs to (the non-shared
// endpoint's network).
func edgeNet(from, to TypedNode) NetworkRef {
	if from.Net != SharedNet {
		return from.Net
	}
	return to.Net
}
