package hetnet

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func twoNets(t *testing.T, n1, n2 int) (*Network, *Network) {
	t.Helper()
	g1 := NewSocialNetwork("net1")
	g2 := NewSocialNetwork("net2")
	for i := 0; i < n1; i++ {
		g1.AddNode(User, strings.Repeat("a", i+1))
	}
	for j := 0; j < n2; j++ {
		g2.AddNode(User, strings.Repeat("b", j+1))
	}
	return g1, g2
}

func TestAlignedPairAnchors(t *testing.T) {
	g1, g2 := twoNets(t, 3, 4)
	p := NewAlignedPair(g1, g2)
	if err := p.AddAnchor(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddAnchor(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.AddAnchor(5, 0); err == nil {
		t.Error("out-of-range anchor should fail")
	}
	if err := p.AddAnchor(0, 9); err == nil {
		t.Error("out-of-range anchor target should fail")
	}
	if !p.HasAnchor(0, 1) || p.HasAnchor(0, 2) {
		t.Error("HasAnchor lookup wrong")
	}
	set := p.AnchorSet()
	if !set[Key(2, 3)] || set[Key(1, 1)] {
		t.Error("AnchorSet lookup wrong")
	}
}

func TestAnchorMatrix(t *testing.T) {
	g1, g2 := twoNets(t, 3, 3)
	p := NewAlignedPair(g1, g2)
	if err := p.AddAnchor(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddAnchor(1, 0); err != nil {
		t.Fatal(err)
	}
	m := p.AnchorMatrix(nil)
	if r, c := m.Dims(); r != 3 || c != 3 {
		t.Fatalf("dims %dx%d", r, c)
	}
	if m.At(0, 2) != 1 || m.At(1, 0) != 1 || m.NNZ() != 2 {
		t.Errorf("anchor matrix wrong: %v", m.ToDense())
	}
	// Subset form: only the provided anchors appear.
	sub := p.AnchorMatrix([]Anchor{{I: 0, J: 2}})
	if sub.NNZ() != 1 || sub.At(0, 2) != 1 {
		t.Errorf("subset anchor matrix wrong: %v", sub.ToDense())
	}
}

func TestValidateOneToOne(t *testing.T) {
	g1, g2 := twoNets(t, 3, 3)
	p := NewAlignedPair(g1, g2)
	if err := p.AddAnchor(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AddAnchor(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("valid pair failed: %v", err)
	}
	// Duplicate source violates one-to-one.
	p.Anchors = append(p.Anchors, Anchor{I: 0, J: 2})
	if err := p.Validate(); err == nil {
		t.Error("duplicate anchor source should fail validation")
	}
	// Duplicate target violates one-to-one.
	p.Anchors = p.Anchors[:2]
	p.Anchors = append(p.Anchors, Anchor{I: 2, J: 1})
	if err := p.Validate(); err == nil {
		t.Error("duplicate anchor target should fail validation")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(i, j uint16) bool {
		a, b := int(i), int(j)
		x, y := UnpackKey(Key(a, b))
		return x == a && y == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNetworkJSONRoundTrip: a network's name, node IDs and link tables
// survive its pair's JSON round trip.
func TestNetworkJSONRoundTrip(t *testing.T) {
	g := NewSocialNetwork("twitter")
	u1 := g.AddNode(User, "alice")
	u2 := g.AddNode(User, "bob")
	p1 := g.AddNode(Post, "post1")
	l1 := g.AddNode(Location, "nyc")
	mustLink(t, g, Follow, u1, u2)
	mustLink(t, g, Write, u1, p1)
	mustLink(t, g, Checkin, p1, l1)

	var buf bytes.Buffer
	if err := NewAlignedPair(g, NewSocialNetwork("other")).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadAlignedJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2 := p2.G1
	if g2.Name() != "twitter" {
		t.Errorf("name = %q", g2.Name())
	}
	if g2.NodeCount(User) != 2 || g2.NodeCount(Post) != 1 || g2.NodeCount(Location) != 1 {
		t.Error("node counts differ after round trip")
	}
	if g2.LinkCount(Follow) != 1 || g2.LinkCount(Write) != 1 || g2.LinkCount(Checkin) != 1 {
		t.Error("link counts differ after round trip")
	}
	if id := g2.NodeID(User, u1); id != "alice" {
		t.Errorf("node ID = %q", id)
	}
	a1, err := g.Adjacency(Follow)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := g2.Adjacency(Follow)
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(a2) {
		t.Error("adjacency differs after round trip")
	}
}

func TestAlignedJSONRoundTrip(t *testing.T) {
	g1, g2 := twoNets(t, 3, 3)
	mustLink(t, g1, Follow, 0, 1)
	p := NewAlignedPair(g1, g2)
	if err := p.AddAnchor(1, 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadAlignedJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Anchors) != 1 || p2.Anchors[0] != (Anchor{I: 1, J: 2}) {
		t.Errorf("anchors = %v", p2.Anchors)
	}
	if p2.G1.LinkCount(Follow) != 1 {
		t.Error("network content lost in round trip")
	}
}

func TestReadAlignedJSONRejectsViolations(t *testing.T) {
	g1, g2 := twoNets(t, 2, 2)
	p := NewAlignedPair(g1, g2)
	if err := p.AddAnchor(0, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt: duplicate the anchor to violate one-to-one.
	s := buf.String()
	s = strings.Replace(s, `"anchors":[[0,0]]`, `"anchors":[[0,0],[0,1]]`, 1)
	if s == buf.String() {
		t.Fatal("test setup failed to inject corruption")
	}
	if _, err := ReadAlignedJSON(strings.NewReader(s)); err == nil {
		t.Error("one-to-one violation should be rejected on read")
	}
}

func TestReadAlignedJSONBadInput(t *testing.T) {
	// pairWith puts g1 and the anchor list into an otherwise well-formed
	// pair document.
	pairWith := func(g1, anchors string) string {
		return `{"g1":` + g1 + `,"g2":{"name":"y","nodes":{"user":["b"]},"links":{}},"anchorType":"user","anchors":` + anchors + `}`
	}
	const healthy = `{"name":"x","nodes":{"user":["a"]},"links":{}}`
	for _, tc := range []struct{ name, in string }{
		{"malformed JSON", "{not json"},
		{"mismatched link arrays", pairWith(`{"name":"x","nodes":{"user":["a"]},"links":{"follow":{"src":"user","dst":"user","from":[0],"to":[]}}}`, "[]")},
		{"out-of-range link index", pairWith(`{"name":"x","nodes":{"user":["a"]},"links":{"follow":{"src":"user","dst":"user","from":[5],"to":[0]}}}`, "[]")},
		{"duplicate node IDs", pairWith(`{"name":"x","nodes":{"user":["a","a"]},"links":{}}`, "[]")},
		{"out-of-range anchor", pairWith(healthy, "[[0,1]]")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadAlignedJSON(strings.NewReader(tc.in)); err == nil {
				t.Error("accepted")
			}
		})
	}
	// The same document with a healthy g1 and an in-range anchor reads.
	t.Run("well-formed", func(t *testing.T) {
		if _, err := ReadAlignedJSON(strings.NewReader(pairWith(healthy, "[[0,0]]"))); err != nil {
			t.Errorf("well-formed pair refused: %v", err)
		}
	})
}
