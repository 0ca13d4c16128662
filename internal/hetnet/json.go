package hetnet

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonNetwork is the on-disk interchange form of one network of an
// AlignedPair. Node tables are stored as ID lists (index = position);
// links as declared endpoint types plus parallel index arrays.
type jsonNetwork struct {
	Name  string                `json:"name"`
	Nodes map[NodeType][]string `json:"nodes"`
	Links map[LinkType]jsonLink `json:"links"`
}

type jsonLink struct {
	Src  NodeType `json:"src"`
	Dst  NodeType `json:"dst"`
	From []int    `json:"from"`
	To   []int    `json:"to"`
}

// jsonAligned is the on-disk form of an AlignedPair.
type jsonAligned struct {
	G1         jsonNetwork `json:"g1"`
	G2         jsonNetwork `json:"g2"`
	AnchorType NodeType    `json:"anchorType"`
	Anchors    [][2]int    `json:"anchors"`
}

func (g *Network) toJSON() jsonNetwork {
	jn := jsonNetwork{
		Name:  g.name,
		Nodes: make(map[NodeType][]string, len(g.nodes)),
		Links: make(map[LinkType]jsonLink, len(g.links)),
	}
	for t, nt := range g.nodes {
		ids := make([]string, len(nt.ids))
		copy(ids, nt.ids)
		jn.Nodes[t] = ids
	}
	for lt, t := range g.links {
		from := make([]int, len(t.from))
		to := make([]int, len(t.to))
		copy(from, t.from)
		copy(to, t.to)
		jn.Links[lt] = jsonLink{Src: t.src, Dst: t.dst, From: from, To: to}
	}
	return jn
}

func networkFromJSON(jn jsonNetwork) (*Network, error) {
	g := NewNetwork(jn.Name)
	for t, ids := range jn.Nodes {
		for _, id := range ids {
			g.AddNode(t, id)
		}
		if g.NodeCount(t) != len(ids) {
			return nil, fmt.Errorf("hetnet: duplicate node IDs in type %q of %q", t, jn.Name)
		}
	}
	for lt, jl := range jn.Links {
		if len(jl.From) != len(jl.To) {
			return nil, fmt.Errorf("hetnet: link type %q has mismatched from/to lengths", lt)
		}
		if err := g.DeclareLink(lt, jl.Src, jl.Dst); err != nil {
			return nil, err
		}
		for k := range jl.From {
			if err := g.AddLink(lt, jl.From[k], jl.To[k]); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// WriteJSON serializes the aligned pair to w.
func (p *AlignedPair) WriteJSON(w io.Writer) error {
	ja := jsonAligned{
		G1:         p.G1.toJSON(),
		G2:         p.G2.toJSON(),
		AnchorType: p.AnchorType,
		Anchors:    make([][2]int, len(p.Anchors)),
	}
	for k, a := range p.Anchors {
		ja.Anchors[k] = [2]int{a.I, a.J}
	}
	return json.NewEncoder(w).Encode(ja)
}

// ReadAlignedJSON deserializes an aligned pair written by
// AlignedPair.WriteJSON and validates it.
func ReadAlignedJSON(r io.Reader) (*AlignedPair, error) {
	var ja jsonAligned
	if err := json.NewDecoder(r).Decode(&ja); err != nil {
		return nil, fmt.Errorf("hetnet: decode aligned pair: %w", err)
	}
	g1, err := networkFromJSON(ja.G1)
	if err != nil {
		return nil, err
	}
	g2, err := networkFromJSON(ja.G2)
	if err != nil {
		return nil, err
	}
	p := &AlignedPair{G1: g1, G2: g2, AnchorType: ja.AnchorType}
	if p.AnchorType == "" {
		p.AnchorType = User
	}
	for _, a := range ja.Anchors {
		if err := p.AddAnchor(a[0], a[1]); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
