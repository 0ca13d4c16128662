package hetnet

import (
	"strings"
	"sync"
	"testing"

	"github.com/activeiter/activeiter/internal/sparse"
)

func TestAddNodeInterning(t *testing.T) {
	g := NewNetwork("test")
	a := g.AddNode(User, "alice")
	b := g.AddNode(User, "bob")
	a2 := g.AddNode(User, "alice")
	if a != a2 {
		t.Errorf("re-adding node returned new index %d != %d", a2, a)
	}
	if a == b {
		t.Error("distinct nodes got the same index")
	}
	if g.NodeCount(User) != 2 {
		t.Errorf("NodeCount = %d, want 2", g.NodeCount(User))
	}
	if g.NodeID(User, a) != "alice" {
		t.Errorf("NodeID = %q", g.NodeID(User, a))
	}
	if idx, ok := g.NodeIndex(User, "bob"); !ok || idx != b {
		t.Errorf("NodeIndex(bob) = %d,%v", idx, ok)
	}
	if _, ok := g.NodeIndex(User, "carol"); ok {
		t.Error("NodeIndex should miss unknown node")
	}
	if _, ok := g.NodeIndex(Post, "alice"); ok {
		t.Error("NodeIndex should miss unknown type")
	}
}

func TestNodeIDPanicsOutOfRange(t *testing.T) {
	g := NewNetwork("test")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.NodeID(User, 0)
}

func TestDeclareLinkConflicts(t *testing.T) {
	g := NewNetwork("test")
	if err := g.DeclareLink(Follow, User, User); err != nil {
		t.Fatal(err)
	}
	if err := g.DeclareLink(Follow, User, User); err != nil {
		t.Errorf("idempotent redeclare should succeed: %v", err)
	}
	if err := g.DeclareLink(Follow, User, Post); err == nil {
		t.Error("conflicting redeclare should fail")
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := NewNetwork("test")
	if err := g.AddLink(Follow, 0, 0); err == nil {
		t.Error("AddLink before DeclareLink should fail")
	}
	if err := g.DeclareLink(Follow, User, User); err != nil {
		t.Fatal(err)
	}
	g.AddNode(User, "a")
	if err := g.AddLink(Follow, 0, 1); err == nil {
		t.Error("out-of-range target should fail")
	}
	if err := g.AddLink(Follow, -1, 0); err == nil {
		t.Error("negative source should fail")
	}
	g.AddNode(User, "b")
	if err := g.AddLink(Follow, 0, 1); err != nil {
		t.Errorf("valid link failed: %v", err)
	}
	if g.LinkCount(Follow) != 1 {
		t.Errorf("LinkCount = %d", g.LinkCount(Follow))
	}
}

func TestAddLinkByID(t *testing.T) {
	g := NewSocialNetwork("tw")
	if err := g.AddLinkByID(Write, "u1", "p1"); err != nil {
		t.Fatal(err)
	}
	if g.NodeCount(User) != 1 || g.NodeCount(Post) != 1 {
		t.Error("AddLinkByID should intern endpoint nodes")
	}
	if err := g.AddLinkByID("bogus", "a", "b"); err == nil {
		t.Error("unknown link type should fail")
	}
}

func TestAdjacency(t *testing.T) {
	g := NewSocialNetwork("tw")
	for _, id := range []string{"a", "b", "c"} {
		g.AddNode(User, id)
	}
	mustLink(t, g, Follow, 0, 1)
	mustLink(t, g, Follow, 1, 2)
	mustLink(t, g, Follow, 0, 1) // duplicate edge
	adj, err := g.Adjacency(Follow)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := adj.Dims(); r != 3 || c != 3 {
		t.Fatalf("adjacency dims %dx%d", r, c)
	}
	if adj.At(0, 1) != 1 {
		t.Error("duplicate edges should collapse to 1")
	}
	if adj.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", adj.NNZ())
	}
	// Cache invalidation on mutation.
	mustLink(t, g, Follow, 2, 0)
	adj2, err := g.Adjacency(Follow)
	if err != nil {
		t.Fatal(err)
	}
	if adj2.At(2, 0) != 1 {
		t.Error("adjacency cache not invalidated after AddLink")
	}
}

// TestAdjacencyConcurrentColdCache is the -race regression for the
// adjacency cache: N goroutines ask a fresh network for every link type
// at once (what a parallel Recompute on a cold counter does), and all of
// them must see the one cached matrix per type.
func TestAdjacencyConcurrentColdCache(t *testing.T) {
	g := NewSocialNetwork("tw")
	for _, id := range []string{"a", "b", "c"} {
		g.AddNode(User, id)
		if err := g.AddLinkByID(Write, id, "p-"+id); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(t, g, Follow, 0, 1)
	mustLink(t, g, Follow, 1, 2)

	const goroutines = 8
	types := g.LinkTypes()
	got := make([][]*sparse.CSR, goroutines)
	var wg sync.WaitGroup
	for n := 0; n < goroutines; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for _, lt := range types {
				m, err := g.Adjacency(lt)
				if err != nil {
					t.Errorf("Adjacency(%s): %v", lt, err)
					return
				}
				got[n] = append(got[n], m)
			}
		}(n)
	}
	wg.Wait()
	for n := 1; n < goroutines; n++ {
		for k := range types {
			if len(got[n]) != len(types) || got[n][k] != got[0][k] {
				t.Fatalf("goroutine %d got a different %s matrix than goroutine 0", n, types[k])
			}
		}
	}
}

func TestAdjacencyUnknownType(t *testing.T) {
	g := NewNetwork("test")
	if _, err := g.Adjacency(Follow); err == nil {
		t.Error("expected error for undeclared link type")
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := NewSocialNetwork("tw")
	for _, id := range []string{"a", "b", "c"} {
		g.AddNode(User, id)
	}
	mustLink(t, g, Follow, 0, 2)
	mustLink(t, g, Follow, 0, 1)
	nbrs, err := g.Neighbors(Follow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 2 {
		t.Errorf("Neighbors = %v, want [1 2] sorted", nbrs)
	}
	d, err := g.Degree(Follow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Errorf("Degree = %d", d)
	}
	if _, err := g.Neighbors(Follow, 9); err == nil {
		t.Error("out-of-range Neighbors should fail")
	}
	if _, err := g.Degree(Follow, -1); err == nil {
		t.Error("out-of-range Degree should fail")
	}
}

func TestStatsString(t *testing.T) {
	g := NewSocialNetwork("twitter")
	g.AddNode(User, "a")
	g.AddNode(User, "b")
	mustLink(t, g, Follow, 0, 1)
	s := g.Stats()
	if s.NodeCount[User] != 2 || s.LinkCount[Follow] != 1 {
		t.Errorf("Stats = %+v", s)
	}
	str := s.String()
	if !strings.Contains(str, "twitter") || !strings.Contains(str, "user=2") {
		t.Errorf("Stats.String = %q", str)
	}
}

func TestSocialNetworkSchema(t *testing.T) {
	g := NewSocialNetwork("fsq")
	want := map[LinkType][2]NodeType{
		Follow:   {User, User},
		Write:    {User, Post},
		At:       {Post, Timestamp},
		Checkin:  {Post, Location},
		Contains: {Post, Word},
	}
	for lt, ep := range want {
		src, dst, ok := g.LinkEndpoints(lt)
		if !ok || src != ep[0] || dst != ep[1] {
			t.Errorf("LinkEndpoints(%s) = %s,%s,%v want %v", lt, src, dst, ok, ep)
		}
	}
	if len(g.LinkTypes()) != 5 {
		t.Errorf("LinkTypes = %v", g.LinkTypes())
	}
}

func TestValidate(t *testing.T) {
	g := NewSocialNetwork("tw")
	g.AddNode(User, "a")
	g.AddNode(User, "b")
	mustLink(t, g, Follow, 0, 1)
	if err := g.Validate(); err != nil {
		t.Errorf("valid network failed Validate: %v", err)
	}
}

func mustLink(t *testing.T, g *Network, lt LinkType, from, to int) {
	t.Helper()
	if err := g.AddLink(lt, from, to); err != nil {
		t.Fatalf("AddLink(%s,%d,%d): %v", lt, from, to, err)
	}
}

// TestFingerprintMemoised: the memoised fingerprint is the structural
// hash — a structurally equal network built apart agrees with it on the
// first and on every later call — every kind of mutation clears it, and
// a mutation that changes nothing (re-adding a node, redeclaring a link)
// leaves it alone.
func TestFingerprintMemoised(t *testing.T) {
	build := func() *Network {
		g := NewSocialNetwork("net")
		for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}} {
			if err := g.AddLinkByID(Follow, e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.AddLinkByID(Write, "a", "p0"); err != nil {
			t.Fatal(err)
		}
		return g
	}
	g, twin := build(), build()
	first := g.Fingerprint()
	if again := g.Fingerprint(); again != first || twin.Fingerprint() != first {
		t.Fatalf("fingerprint %#x, memoised %#x, structural twin %#x", first, again, twin.Fingerprint())
	}

	g.AddNode(User, "a") // already there
	if err := g.DeclareLink(Follow, User, User); err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != first {
		t.Fatal("a no-op mutation moved the fingerprint")
	}

	prev := first
	moved := func(what string) {
		t.Helper()
		got := g.Fingerprint()
		if got == prev {
			t.Fatalf("fingerprint unchanged after %s", what)
		}
		prev = got
	}
	g.AddNode(User, "d")
	moved("AddNode")
	if err := g.DeclareLink("mentions", Post, User); err != nil {
		t.Fatal(err)
	}
	moved("DeclareLink")
	if err := g.AddLink(Follow, 0, 3); err != nil {
		t.Fatal(err)
	}
	moved("AddLink")
	if err := g.AddLinkByID(Follow, "d", "e"); err != nil {
		t.Fatal(err)
	}
	moved("AddLinkByID")

	// The same edits on the twin land on the same hash: the memo never
	// outlives the structure it was computed from.
	twin.AddNode(User, "d")
	if err := twin.DeclareLink("mentions", Post, User); err != nil {
		t.Fatal(err)
	}
	if err := twin.AddLink(Follow, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := twin.AddLinkByID(Follow, "d", "e"); err != nil {
		t.Fatal(err)
	}
	if twin.Fingerprint() != prev {
		t.Fatalf("twin after the same edits: %#x, want %#x", twin.Fingerprint(), prev)
	}
}

// TestFingerprintConcurrentReaders: many goroutines asking a built
// network for its fingerprint at once — the first of them computing it —
// agree, and the race detector has nothing to say.
func TestFingerprintConcurrentReaders(t *testing.T) {
	g := NewSocialNetwork("net")
	for i := 0; i < 200; i++ {
		if err := g.AddLinkByID(Follow, string(rune('a'+i%26)), string(rune('a'+(i*7)%26))); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.Fingerprint()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("reader %d saw %#x, reader 0 %#x", i, got[i], got[0])
		}
	}
}
