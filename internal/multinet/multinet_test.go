package multinet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
)

func threeNets(t *testing.T, users int) []*hetnet.Network {
	t.Helper()
	nets := make([]*hetnet.Network, 3)
	for k := range nets {
		nets[k] = hetnet.NewSocialNetwork(fmt.Sprintf("n%d", k))
		for u := 0; u < users; u++ {
			nets[k].AddNode(hetnet.User, fmt.Sprintf("u%d", u))
		}
	}
	return nets
}

func TestAlignedSetBasics(t *testing.T) {
	s := NewAlignedSet(threeNets(t, 4)...)
	if err := s.AddAnchor(0, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddAnchor(2, 0, 3, 2); err != nil { // reversed order
		t.Fatal(err)
	}
	if err := s.AddAnchor(0, 0, 1, 1); err == nil {
		t.Error("same-network anchor should fail")
	}
	if err := s.AddAnchor(0, 9, 0, 0); err == nil {
		t.Error("out-of-range network should fail")
	}
	if err := s.AddAnchor(0, 1, 99, 0); err == nil {
		t.Error("out-of-range user should fail")
	}
	// Orientation: Anchors(0,2) must give (2, 3), Anchors(2,0) → (3, 2).
	a02 := s.Anchors(0, 2)
	if len(a02) != 1 || a02[0] != (hetnet.Anchor{I: 2, J: 3}) {
		t.Errorf("Anchors(0,2) = %v", a02)
	}
	a20 := s.Anchors(2, 0)
	if len(a20) != 1 || a20[0] != (hetnet.Anchor{I: 3, J: 2}) {
		t.Errorf("Anchors(2,0) = %v", a20)
	}
	if len(s.Pairs()) != 3 {
		t.Errorf("Pairs = %v", s.Pairs())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("valid set failed: %v", err)
	}
}

func TestAlignedSetPairView(t *testing.T) {
	s := NewAlignedSet(threeNets(t, 4)...)
	if err := s.AddAnchor(0, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	p, err := s.Pair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Anchors) != 1 || p.Anchors[0] != (hetnet.Anchor{I: 2, J: 3}) {
		t.Errorf("pair anchors = %v", p.Anchors)
	}
	if _, err := s.Pair(0, 0); err == nil {
		t.Error("self-pair should fail")
	}
}

func TestReconcileTransitivity(t *testing.T) {
	// Links 0-1 and 1-2 imply the 0-2 correspondence transitively.
	links := []ScoredLink{
		{NetI: 0, NetJ: 1, A: hetnet.Anchor{I: 5, J: 6}, Score: 0.9},
		{NetI: 1, NetJ: 2, A: hetnet.Anchor{I: 6, J: 7}, Score: 0.8},
	}
	clusters, rejected := Reconcile(links)
	if rejected != 0 {
		t.Errorf("rejected = %d", rejected)
	}
	if len(clusters) != 1 {
		t.Fatalf("clusters = %v", clusters)
	}
	c := clusters[0]
	if c.Members[0] != 5 || c.Members[1] != 6 || c.Members[2] != 7 {
		t.Errorf("cluster = %v", c.Members)
	}
	inferred := PairLinks(clusters, 0, 2)
	if len(inferred) != 1 || inferred[0] != (hetnet.Anchor{I: 5, J: 7}) {
		t.Errorf("transitive link = %v", inferred)
	}
}

func TestReconcileRejectsConflicts(t *testing.T) {
	// Two strong links claim different net-1 identities for net-0 user 5:
	// the weaker join must be rejected.
	links := []ScoredLink{
		{NetI: 0, NetJ: 1, A: hetnet.Anchor{I: 5, J: 6}, Score: 0.9},
		{NetI: 0, NetJ: 1, A: hetnet.Anchor{I: 5, J: 7}, Score: 0.6},
	}
	clusters, rejected := Reconcile(links)
	if rejected != 1 {
		t.Errorf("rejected = %d, want 1", rejected)
	}
	if len(clusters) != 1 || clusters[0].Members[1] != 6 {
		t.Errorf("clusters = %v", clusters)
	}
}

func TestReconcileIndirectConflict(t *testing.T) {
	// a0—b0 and a1—b0? no: indirect: a0≡b0, b0≡c0, and a1≡c0 would put
	// a0 and a1 in one cluster — reject the weakest.
	links := []ScoredLink{
		{NetI: 0, NetJ: 1, A: hetnet.Anchor{I: 0, J: 0}, Score: 0.9},
		{NetI: 1, NetJ: 2, A: hetnet.Anchor{I: 0, J: 0}, Score: 0.8},
		{NetI: 0, NetJ: 2, A: hetnet.Anchor{I: 1, J: 0}, Score: 0.7},
	}
	clusters, rejected := Reconcile(links)
	if rejected != 1 {
		t.Errorf("rejected = %d, want 1", rejected)
	}
	if len(clusters) != 1 {
		t.Fatalf("clusters = %+v", clusters)
	}
	if clusters[0].Members[0] != 0 {
		t.Errorf("cluster kept wrong net-0 user: %v", clusters[0].Members)
	}
}

func TestReconcileDuplicatesAreConsistent(t *testing.T) {
	links := []ScoredLink{
		{NetI: 0, NetJ: 1, A: hetnet.Anchor{I: 1, J: 1}, Score: 0.9},
		{NetI: 0, NetJ: 1, A: hetnet.Anchor{I: 1, J: 1}, Score: 0.5}, // duplicate
	}
	clusters, rejected := Reconcile(links)
	if rejected != 0 {
		t.Errorf("duplicates should not count as rejections, got %d", rejected)
	}
	if len(clusters) != 1 {
		t.Errorf("clusters = %v", clusters)
	}
}

func TestReconcileEmpty(t *testing.T) {
	clusters, rejected := Reconcile(nil)
	if len(clusters) != 0 || rejected != 0 {
		t.Errorf("empty input: %v, %d", clusters, rejected)
	}
}

// TestEndToEndTripleAlignment aligns three generated networks pairwise
// with the real model and reconciles: the clusters must recover shared
// users with high precision, and transitive inference must add links no
// pairwise run predicted.
func TestEndToEndTripleAlignment(t *testing.T) {
	cfg := datagen.Tiny()
	ds, err := datagen.GenerateMulti(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	set := NewAlignedSet(ds.Nets...)
	for _, row := range ds.SharedUsers {
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if err := set.AddAnchor(i, j, row[i], row[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}

	// Pairwise alignment with 25% training anchors per pair.
	var predictions []ScoredLink
	for _, ij := range set.Pairs() {
		pair, err := set.Pair(ij[0], ij[1])
		if err != nil {
			t.Fatal(err)
		}
		train := pair.Anchors[:len(pair.Anchors)/4]
		counter, err := metadiag.NewCounter(pair)
		if err != nil {
			t.Fatal(err)
		}
		counter.SetAnchors(train)
		ext := metadiag.NewExtractor(counter, schema.StandardLibrary().All(), true)
		cands, err := ext.Candidates(4)
		if err != nil {
			t.Fatal(err)
		}
		links := append(append([]hetnet.Anchor{}, train...), cands...)
		x, err := ext.FeatureMatrix(links)
		if err != nil {
			t.Fatal(err)
		}
		labeled := make([]int, len(train))
		for k := range labeled {
			labeled[k] = k
		}
		res, err := core.Train(core.Problem{Links: links, X: x, LabeledPos: labeled}, core.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for idx, l := range links {
			if res.Y[idx] == 1 {
				predictions = append(predictions, ScoredLink{
					NetI: ij[0], NetJ: ij[1], A: l, Score: res.Scores[idx],
				})
			}
		}
	}

	clusters, _ := Reconcile(predictions)
	if len(clusters) == 0 {
		t.Fatal("no clusters reconciled")
	}
	// Precision of clusters against ground truth: every member pair must
	// be a true shared identity.
	truth := make(map[string]bool)
	for _, row := range ds.SharedUsers {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i != j {
					truth[fmt.Sprintf("%d:%d-%d:%d", i, row[i], j, row[j])] = true
				}
			}
		}
	}
	correct, total := 0, 0
	for _, c := range clusters {
		for ni, ui := range c.Members {
			for nj, uj := range c.Members {
				if ni >= nj {
					continue
				}
				total++
				if truth[fmt.Sprintf("%d:%d-%d:%d", ni, ui, nj, uj)] {
					correct++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("clusters carry no pairs")
	}
	precision := float64(correct) / float64(total)
	if precision < 0.7 {
		t.Errorf("cluster precision = %.2f (%d/%d), want ≥ 0.7", precision, correct, total)
	}
	// One-to-one per network inside the reconciled world.
	for _, ij := range set.Pairs() {
		seen := make(map[int]bool)
		for _, a := range PairLinks(clusters, ij[0], ij[1]) {
			if seen[a.I] {
				t.Fatalf("pair (%d,%d): duplicate left user %d", ij[0], ij[1], a.I)
			}
			seen[a.I] = true
		}
	}
}

func TestGenerateMultiShape(t *testing.T) {
	cfg := datagen.Tiny()
	ds, err := datagen.GenerateMulti(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Nets) != 3 {
		t.Fatalf("nets = %d", len(ds.Nets))
	}
	for k, g := range ds.Nets {
		if got := g.NodeCount(hetnet.User); got != cfg.Users1 {
			t.Errorf("net %d users = %d, want %d", k, got, cfg.Users1)
		}
		if g.NodeCount(hetnet.Post) == 0 || g.LinkCount(hetnet.Follow) == 0 {
			t.Errorf("net %d missing content", k)
		}
	}
	if len(ds.SharedUsers) != cfg.AnchorCount {
		t.Errorf("shared users = %d", len(ds.SharedUsers))
	}
	for _, row := range ds.SharedUsers {
		for k, u := range row {
			if u < 0 {
				t.Fatalf("shared user missing from network %d", k)
			}
		}
	}
	if _, err := datagen.GenerateMulti(cfg, 1); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := datagen.GenerateMulti(cfg, 17); err == nil {
		t.Error("n=17 should fail")
	}
}

// randomLinks generates a scored link multiset over nNets networks with
// deliberate score ties and duplicate links, the inputs where ordering
// bugs would show.
func randomLinks(rng *rand.Rand, nNets, nUsers, n int) []ScoredLink {
	links := make([]ScoredLink, 0, n)
	for len(links) < n {
		i := rng.Intn(nNets)
		j := rng.Intn(nNets)
		if i == j {
			continue
		}
		l := ScoredLink{
			NetI:  i,
			NetJ:  j,
			A:     hetnet.Anchor{I: rng.Intn(nUsers), J: rng.Intn(nUsers)},
			Score: float64(rng.Intn(4)), // few distinct scores: many ties
		}
		links = append(links, l)
		if rng.Intn(4) == 0 { // occasional exact duplicate
			links = append(links, l)
		}
	}
	return links[:n]
}

func clustersEqual(a, b []Cluster) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if clusterKey(a[k]) != clusterKey(b[k]) {
			return false
		}
	}
	return true
}

// TestReconcileOrderIndependent: any permutation of a link multiset
// reconciles to exactly the clusters (and rejection count) of the
// original order, and Reconcile leaves its input as it found it.
func TestReconcileOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		links := randomLinks(rng, 2+rng.Intn(3), 1+rng.Intn(8), rng.Intn(60))
		wantClusters, wantRejected := Reconcile(links)

		shuffled := make([]ScoredLink, len(links))
		copy(shuffled, links)
		rng.Shuffle(len(shuffled), func(a, b int) {
			shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
		})
		before := slices.Clone(shuffled)
		gotClusters, gotRejected := Reconcile(shuffled)
		if !slices.Equal(shuffled, before) {
			t.Fatalf("trial %d: Reconcile reordered its input", trial)
		}
		if gotRejected != wantRejected {
			t.Errorf("trial %d: rejected=%d want %d", trial, gotRejected, wantRejected)
		}
		if !clustersEqual(gotClusters, wantClusters) {
			t.Errorf("trial %d: clusters diverge across input orders\n got: %v\nwant: %v",
				trial, gotClusters, wantClusters)
		}
	}
}
