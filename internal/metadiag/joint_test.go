package metadiag

import (
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// subDiagrams files d and every sub-diagram eval can reach from it under
// the notation eval keys them by.
func subDiagrams(d schema.Diagram, into map[string]schema.Diagram) {
	d = unwrap(d)
	into[d.Notation()] = d
	switch v := d.(type) {
	case schema.Series:
		for _, p := range v.Parts {
			subDiagrams(p, into)
		}
	case schema.Parallel:
		for _, p := range v.Parts {
			subDiagrams(p, into)
		}
	}
}

// TestWarmCachesNoPostPairCount: a cold count of the standard library
// chains Ψ^a² through its (timestamp, location) tuples, so after Warm no
// matrix in the shared layer runs from posts to posts — neither the
// stack nor either attribute round trip.
func TestWarmCachesNoPostPairCount(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	feats := schema.StandardLibrary().All()
	if err := c.Warm(feats); err != nil {
		t.Fatal(err)
	}
	subs := make(map[string]schema.Diagram)
	for _, f := range feats {
		subDiagrams(f.D, subs)
	}
	postPairs := 0
	for _, d := range subs {
		if d.Source().Type == hetnet.Post && d.Sink().Type == hetnet.Post {
			postPairs++
		}
	}
	if postPairs == 0 {
		t.Fatal("fixture lost its post×post sub-diagrams")
	}
	c.sh.mu.Lock()
	defer c.sh.mu.Unlock()
	for key := range c.sh.counts {
		d, ok := subs[key]
		if !ok {
			t.Errorf("shared layer holds %q, no sub-diagram of the library", key)
			continue
		}
		if d.Source().Type == hetnet.Post && d.Sink().Type == hetnet.Post {
			t.Errorf("shared layer holds the post×post count %q", key)
		}
	}
}

// TestExtendedContainsStacksMatchHadamard: the extended library's stacks
// with words have multi-valued middles (two words a post), where the
// joint form may lose the flop comparison. Whichever way JointFactors
// decides, the stack counted on its own equals the Hadamard of its
// separately counted parts, and the Ψ^a² around it equals the unfused
// reference.
func TestExtendedContainsStacksMatchHadamard(t *testing.T) {
	cfg := datagen.Small()
	cfg.Words, cfg.WordsPerPost = 200, 2
	pair, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stacks := 0
	for _, f := range schema.ExtendedLibrary().Diagrams {
		if !strings.HasPrefix(f.ID, "PSI_A2[") || !strings.Contains(f.ID, "P7") {
			continue
		}
		stacks++
		stack := f.D.(schema.Series).Parts[1].(schema.Parallel)
		parts, err := NewCounter(pair)
		if err != nil {
			t.Fatal(err)
		}
		var want *sparse.CSR
		for _, p := range stack.Parts {
			m, err := parts.Count(p)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = m
			} else {
				want = sparse.Hadamard(want, m)
			}
		}
		c, err := NewCounter(pair)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Count(stack)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: the stack differs from the Hadamard of its parts", f.ID)
		}
		whole, err := NewCounter(pair)
		if err != nil {
			t.Fatal(err)
		}
		m, err := whole.Count(f.D)
		if err != nil {
			t.Fatal(err)
		}
		if ref := referenceCount(t, whole, f.D); !m.Equal(ref) {
			t.Errorf("%s: Count differs from the unfused evaluation", f.ID)
		}
	}
	if stacks != 2 {
		t.Fatalf("extended library has %d word stacks, want 2", stacks)
	}
}

// TestAnchoredSeriesKeepsStackShared: a Series that traverses an anchor
// evaluates a joint stack beside it through the shared layer, so a
// SetAnchors recount re-evaluates the Series and its anchor edge and
// finds the stack cached — while the anchor-free Ψ^a² on the same
// fixture chains the stack's factors and caches no stack at all.
func TestAnchoredSeriesKeepsStackShared(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Counter {
		c, err := NewCounter(pair)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	psi := schema.AttributeDiagram(hetnet.At, hetnet.Checkin).(schema.Series)
	stack := psi.Parts[1].Notation()
	c := fresh()
	if _, err := c.Count(psi); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.sh.counts[stack]; ok {
		t.Fatal("anchor-free Ψ^a² cached its stack: the fixture no longer takes the joint form")
	}
	anchored := schema.Seq(append([]schema.Diagram{schema.AnchorEdge(schema.User2(), schema.User1())}, psi.Parts...)...)
	c = fresh()
	for round, anchors := range [][]hetnet.Anchor{nil, pair.Anchors[:len(pair.Anchors)/2]} {
		if round > 0 {
			c.SetAnchors(anchors)
		}
		before := c.Stats().Evaluations
		got, err := c.Count(anchored)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceCount(t, c, anchored); !got.Equal(want) {
			t.Fatalf("round %d: anchored Series differs from the unfused evaluation", round)
		}
		if _, ok := c.sh.counts[stack]; !ok {
			t.Fatalf("round %d: the stack beside an anchor edge is not in the shared layer", round)
		}
		if evals := c.Stats().Evaluations - before; round > 0 && evals != 2 {
			t.Errorf("recount after SetAnchors evaluated %d diagrams, want 2 (the Series and its anchor edge)", evals)
		}
	}
}
