package metadiag

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// referenceAttributeAdjacency is the per-link construction the counter
// used to build an attribute adjacency with: every link's value looked
// up by external ID in the joint vocabulary — the first network's
// values, then the second's new ones, in interning order — added to a
// Builder, then compiled and binarised.
func referenceAttributeAdjacency(t *testing.T, pair *hetnet.AlignedPair, ref schema.NetworkRef, rel hetnet.LinkType) *sparse.CSR {
	t.Helper()
	g := pair.G1
	if ref != schema.Net1 {
		g = pair.G2
	}
	src, dst, ok := g.LinkEndpoints(rel)
	if !ok {
		t.Fatalf("%s not declared in %q", rel, g.Name())
	}
	index := make(map[string]int)
	for _, h := range []*hetnet.Network{pair.G1, pair.G2} {
		for i := 0; i < h.NodeCount(dst); i++ {
			if id := h.NodeID(dst, i); index[id] == 0 {
				index[id] = len(index) + 1 // 0 is "not seen"
			}
		}
	}
	b := sparse.NewBuilder(g.NodeCount(src), len(index))
	g.Links(rel, func(from, to int) { b.Add(from, index[g.NodeID(dst, to)]-1, 1) })
	return b.Build().Binarize()
}

// attributeRelations lists every (network, relation) whose target is an
// attribute type: the adjacencies the counter renames into a joint
// vocabulary.
func attributeRelations(pair *hetnet.AlignedPair) (refs []schema.NetworkRef, rels []hetnet.LinkType) {
	attr := make(map[hetnet.NodeType]bool)
	for _, t := range hetnet.AttributeTypes {
		attr[t] = true
	}
	for _, ref := range []schema.NetworkRef{schema.Net1, schema.Net2} {
		g := pair.G1
		if ref != schema.Net1 {
			g = pair.G2
		}
		for _, rel := range g.LinkTypes() {
			if _, dst, _ := g.LinkEndpoints(rel); attr[dst] {
				refs, rels = append(refs, ref), append(rels, rel)
			}
		}
	}
	return refs, rels
}

// requireSameLayout fails unless got is want to the bit: shape, layout
// and the compressed arrays.
func requireSameLayout(t *testing.T, name string, got, want *sparse.CSR) {
	t.Helper()
	if got.Block() || want.Block() {
		t.Fatalf("%s: block layout (got %v, want %v), want compressed", name, got.Block(), want.Block())
	}
	gr, gc, gp, gi, gv := got.Raw()
	wr, wc, wp, wi, wv := want.Raw()
	if gr != wr || gc != wc {
		t.Fatalf("%s: %dx%d, want %dx%d", name, gr, gc, wr, wc)
	}
	if !reflect.DeepEqual(gp, wp) || !reflect.DeepEqual(gi, wi) || !reflect.DeepEqual(gv, wv) {
		t.Fatalf("%s: arrays differ\n got rowPtr %v colIdx %v val %v\nwant rowPtr %v colIdx %v val %v", name, gp, gi, gv, wp, wi, wv)
	}
}

// checkAgainstReference builds a fresh counter over pair and requires
// each of its attribute adjacencies to be the per-link reference.
func checkAgainstReference(t *testing.T, name string, pair *hetnet.AlignedPair) {
	t.Helper()
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	refs, rels := attributeRelations(pair)
	if len(rels) == 0 {
		t.Fatalf("%s: no attribute relation", name)
	}
	for k, rel := range rels {
		got, err := c.adjacency(refs[k], rel)
		if err != nil {
			t.Fatal(err)
		}
		requireSameLayout(t, fmt.Sprintf("%s %v/%s", name, refs[k], rel), got, referenceAttributeAdjacency(t, pair, refs[k], rel))
	}
}

// TestAttributeAdjacencyMatchesPerLinkReference: renaming a network's
// cached adjacency into the joint vocabulary builds exactly the matrix
// the per-link construction built, on generated pairs at tiny and small
// over several seeds, some of them with words (posts carrying several
// values of one type).
func TestAttributeAdjacencyMatchesPerLinkReference(t *testing.T) {
	for _, preset := range []string{"tiny", "small"} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg, err := datagen.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			if seed%2 == 1 {
				cfg.Words, cfg.WordsPerPost = 40, 3
			}
			pair, err := datagen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, fmt.Sprintf("%s seed %d", preset, seed), pair)
		}
	}
}

// TestAttributeAdjacencyHandBuilt holds the renaming to the reference
// on the cases a generated pair may miss.
func TestAttributeAdjacencyHandBuilt(t *testing.T) {
	link := func(g *hetnet.Network, lt hetnet.LinkType, from, to string) {
		t.Helper()
		if err := g.AddLinkByID(lt, from, to); err != nil {
			t.Fatal(err)
		}
	}
	pairOf := func(g1, g2 *hetnet.Network) *hetnet.AlignedPair {
		pair := hetnet.NewAlignedPair(g1, g2)
		if err := pair.Validate(); err != nil {
			t.Fatal(err)
		}
		return pair
	}

	// G2 interns its locations and timestamps in another order and holds
	// values G1 lacks.
	checkAgainstReference(t, "reordered and private values", buildTestPair(t))

	// A G2 post checked in at a value G1 lacks, then at one G1 has: its
	// network-local row [0 1] renames to [2 0] and must be re-sorted.
	g1, g2 := hetnet.NewSocialNetwork("a"), hetnet.NewSocialNetwork("b")
	link(g1, hetnet.Checkin, "p0", "L0")
	link(g1, hetnet.Checkin, "p1", "L1")
	link(g2, hetnet.Checkin, "q0", "L9")
	link(g2, hetnet.Checkin, "q0", "L0")
	pair := pairOf(g1, g2)
	if local, _ := g2.Adjacency(hetnet.Checkin); !reflect.DeepEqual(rowCols(local, 0), []int{0, 1}) {
		t.Fatalf("q0's local row %v, want [0 1]", rowCols(local, 0))
	}
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := c.adjacency(schema.Net2, hetnet.Checkin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowCols(joint, 0), []int{0, 2}) {
		t.Fatalf("q0's joint row %v, want [0 2]", rowCols(joint, 0))
	}
	checkAgainstReference(t, "re-sorted row", pair)

	// Duplicate links collapse to one 1, as the network's own adjacency
	// collapses them.
	g1, g2 = hetnet.NewSocialNetwork("a"), hetnet.NewSocialNetwork("b")
	for range 3 {
		link(g1, hetnet.At, "p0", "T1")
	}
	link(g1, hetnet.At, "p0", "T0")
	link(g2, hetnet.At, "q0", "T0")
	link(g2, hetnet.At, "q0", "T0")
	checkAgainstReference(t, "duplicate links", pairOf(g1, g2))

	// Attribute nodes no link reaches still take a joint column.
	g1, g2 = hetnet.NewSocialNetwork("a"), hetnet.NewSocialNetwork("b")
	g1.AddNode(hetnet.Location, "Lz")
	link(g1, hetnet.Checkin, "p0", "L0")
	g2.AddNode(hetnet.Location, "Ly")
	g2.AddNode(hetnet.Timestamp, "Tz")
	link(g2, hetnet.Checkin, "q0", "L0")
	pair = pairOf(g1, g2)
	checkAgainstReference(t, "isolated values", pair)
	if c, err = NewCounter(pair); err != nil {
		t.Fatal(err)
	}
	if c.VocabSize(hetnet.Location) != 3 || c.VocabSize(hetnet.Timestamp) != 1 {
		t.Fatalf("isolated values: location vocabulary %d, timestamp %d, want 3 and 1", c.VocabSize(hetnet.Location), c.VocabSize(hetnet.Timestamp))
	}

	// An attribute type only one network holds: the other's adjacency is
	// the full joint width with no entry, and the holder's columns start
	// at 0 whichever side it is.
	for side := range 2 {
		g1, g2 = hetnet.NewSocialNetwork("a"), hetnet.NewSocialNetwork("b")
		holder, other := g1, g2
		if side == 1 {
			holder, other = g2, g1
		}
		link(holder, hetnet.Contains, "p0", "W1")
		link(holder, hetnet.Contains, "p0", "W0")
		link(holder, hetnet.Contains, "p1", "W1")
		other.AddNode(hetnet.Post, "p0")
		checkAgainstReference(t, fmt.Sprintf("words in network %d only", side+1), pairOf(g1, g2))
	}
}

// rowCols returns the stored columns of row i.
func rowCols(m *sparse.CSR, i int) []int {
	cols, _ := m.RowSlice(i)
	return cols
}

// TestCounterAdjacencyFollowsAddLink: a counter built after AddLink
// renames the network's rebuilt adjacency and sees the new link; one
// built before it keeps the matrix it already holds.
func TestCounterAdjacencyFollowsAddLink(t *testing.T) {
	pair := buildTestPair(t)
	before, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	old, err := before.adjacency(schema.Net2, hetnet.Checkin)
	if err != nil {
		t.Fatal(err)
	}
	oldWant := referenceAttributeAdjacency(t, pair, schema.Net2, hetnet.Checkin)
	// q0 also checks in at L2, a value it did not hold.
	if err := pair.G2.AddLinkByID(hetnet.Checkin, "q0", "L2"); err != nil {
		t.Fatal(err)
	}
	after, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	got, err := after.adjacency(schema.Net2, hetnet.Checkin)
	if err != nil {
		t.Fatal(err)
	}
	requireSameLayout(t, "after AddLink", got, referenceAttributeAdjacency(t, pair, schema.Net2, hetnet.Checkin))
	if got.NNZ() != old.NNZ()+1 {
		t.Fatalf("counter built after AddLink holds %d links, want %d", got.NNZ(), old.NNZ()+1)
	}
	kept, err := before.adjacency(schema.Net2, hetnet.Checkin)
	if err != nil {
		t.Fatal(err)
	}
	if kept != old {
		t.Fatal("counter built before AddLink rebuilt its adjacency")
	}
	requireSameLayout(t, "before AddLink", kept, oldWant)
}

// TestAttributeAdjacencyAllocs pins the cost of a fresh counter's
// attribute adjacencies once the networks hold theirs: a small fixed
// number of allocations each, however many links they rename. A
// per-link builder allocates as its triplets grow, and more than this
// on every relation of a generated pair.
func TestAttributeAdjacencyAllocs(t *testing.T) {
	const runs, perAdjacency = 5, 8
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	refs, rels := attributeRelations(pair)
	counters := make([]*Counter, runs+2) // AllocsPerRun calls once more to warm up
	for k := range counters {
		if counters[k], err = NewCounter(pair); err != nil {
			t.Fatal(err)
		}
	}
	build := func(c *Counter) {
		for k, rel := range rels {
			if _, err := c.adjacency(refs[k], rel); err != nil {
				t.Fatal(err)
			}
		}
	}
	build(counters[0]) // fills the networks' caches
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		build(counters[next])
		next++
	})
	if limit := float64(perAdjacency * len(rels)); allocs > limit {
		t.Fatalf("a fresh counter's %d attribute adjacencies cost %v allocations, want at most %v", len(rels), allocs, limit)
	}
}

// TestColdCountersRemapConcurrently: fresh counters over one pair whose
// networks have built no adjacency yet rename their attribute
// adjacencies side by side, each network building its matrix once
// under its lock, and all of them get the reference matrices.
func TestColdCountersRemapConcurrently(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	refs, rels := attributeRelations(pair)
	const counters = 6
	got := make([][]*sparse.CSR, counters)
	errs := make([]error, counters)
	var wg sync.WaitGroup
	for w := range counters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewCounter(pair)
			if err != nil {
				errs[w] = err
				return
			}
			for k := range rels {
				// Start each counter at another relation so the cold
				// builds overlap.
				k = (k + w) % len(rels)
				m, err := c.adjacency(refs[k], rels[k])
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], m)
			}
		}()
	}
	wg.Wait()
	for w := range counters {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for p, m := range got[w] {
			k := (p + w) % len(rels)
			requireSameLayout(t, fmt.Sprintf("counter %d %v/%s", w, refs[k], rels[k]), m, referenceAttributeAdjacency(t, pair, refs[k], rels[k]))
		}
	}
}
