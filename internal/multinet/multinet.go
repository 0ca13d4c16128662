// Package multinet extends the two-network alignment of the paper to
// multiple (more than two) aligned social networks — the extension the
// paper's Section II sketches ("simple extensions of the model can be
// applied to multiple aligned social networks as well").
//
// The approach is pairwise-then-reconcile: every network pair is aligned
// with the existing ActiveIter machinery, and the pairwise predictions
// are merged into identity clusters subject to two global constraints:
//
//   - one-to-one per network pair (no cluster holds two users of the
//     same network), and
//   - transitive consistency (if a≡b and b≡c then a≡c — clusters are
//     equivalence classes by construction).
//
// Reconciliation is a score-greedy union-find: predicted links join
// clusters in descending score order, and a join is rejected when the
// merged cluster would contain two distinct users of one network. This
// is the natural generalization of the paper's greedy cardinality-
// constrained link selection to k partite sets; on two networks it
// keeps exactly the links matching.Greedy keeps, which is why the
// two-network shard merge (internal/partition) runs that greedy instead.
package multinet

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// AlignedSet couples n ≥ 2 networks with pairwise ground-truth anchor
// sets.
type AlignedSet struct {
	Nets    []*hetnet.Network
	anchors map[[2]int][]hetnet.Anchor // key (i,j) with i < j
}

// NewAlignedSet wraps the networks with empty anchor sets. It panics
// with fewer than two networks.
func NewAlignedSet(nets ...*hetnet.Network) *AlignedSet {
	if len(nets) < 2 {
		panic("multinet: need at least two networks")
	}
	return &AlignedSet{Nets: nets, anchors: make(map[[2]int][]hetnet.Anchor)}
}

// pairKey canonicalizes a network index pair.
func pairKey(i, j int) ([2]int, bool) {
	if i < j {
		return [2]int{i, j}, true
	}
	return [2]int{j, i}, false
}

// AddAnchor records a ground-truth anchor between user a of network i
// and user b of network j.
func (s *AlignedSet) AddAnchor(i, j, a, b int) error {
	if i == j || i < 0 || j < 0 || i >= len(s.Nets) || j >= len(s.Nets) {
		return fmt.Errorf("multinet: invalid network pair (%d,%d) of %d", i, j, len(s.Nets))
	}
	key, ordered := pairKey(i, j)
	if !ordered {
		a, b = b, a
	}
	if a < 0 || a >= s.Nets[key[0]].NodeCount(hetnet.User) {
		return fmt.Errorf("multinet: user %d out of range in network %d", a, key[0])
	}
	if b < 0 || b >= s.Nets[key[1]].NodeCount(hetnet.User) {
		return fmt.Errorf("multinet: user %d out of range in network %d", b, key[1])
	}
	s.anchors[key] = append(s.anchors[key], hetnet.Anchor{I: a, J: b})
	return nil
}

// Anchors returns the ground-truth anchors of pair (i, j) oriented i→j.
func (s *AlignedSet) Anchors(i, j int) []hetnet.Anchor {
	key, ordered := pairKey(i, j)
	src := s.anchors[key]
	out := make([]hetnet.Anchor, len(src))
	copy(out, src)
	if !ordered {
		for k, a := range out {
			out[k] = hetnet.Anchor{I: a.J, J: a.I}
		}
	}
	return out
}

// Pair materializes the aligned pair (i, j) for the two-network
// machinery, with anchors oriented i→j.
func (s *AlignedSet) Pair(i, j int) (*hetnet.AlignedPair, error) {
	if i == j || i < 0 || j < 0 || i >= len(s.Nets) || j >= len(s.Nets) {
		return nil, fmt.Errorf("multinet: invalid network pair (%d,%d)", i, j)
	}
	p := hetnet.NewAlignedPair(s.Nets[i], s.Nets[j])
	for _, a := range s.Anchors(i, j) {
		if err := p.AddAnchor(a.I, a.J); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Pairs enumerates all network index pairs (i < j).
func (s *AlignedSet) Pairs() [][2]int {
	var out [][2]int
	for i := 0; i < len(s.Nets); i++ {
		for j := i + 1; j < len(s.Nets); j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// Validate checks every pairwise anchor set for one-to-one violations.
func (s *AlignedSet) Validate() error {
	for _, ij := range s.Pairs() {
		p, err := s.Pair(ij[0], ij[1])
		if err != nil {
			return err
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("multinet: pair (%d,%d): %w", ij[0], ij[1], err)
		}
	}
	return nil
}

// ScoredLink is one pairwise alignment prediction: user A.I of network
// NetI corresponds to user A.J of network NetJ with the given score.
type ScoredLink struct {
	NetI, NetJ int
	A          hetnet.Anchor
	Score      float64
}

// Cluster is a reconciled identity: at most one user per network.
type Cluster struct {
	// Members maps network index → user index.
	Members map[int]int
}

// member identifies a (network, user) node in the union-find.
type member struct {
	net, user int
}

// Reconcile merges pairwise predictions into globally consistent
// identity clusters (see the package comment for the algorithm). It
// returns the clusters with ≥ 2 members and the number of links
// rejected for violating cross-network consistency. The links are
// ordered by a total order — score descending, ties by (NetI, NetJ,
// A.I, A.J) — so the outcome is deterministic and identical for any
// order of the same multiset. links is not modified.
func Reconcile(links []ScoredLink) (clusters []Cluster, rejected int) {
	sorted := slices.Clone(links)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Score != sorted[b].Score {
			return sorted[a].Score > sorted[b].Score
		}
		if sorted[a].NetI != sorted[b].NetI {
			return sorted[a].NetI < sorted[b].NetI
		}
		if sorted[a].NetJ != sorted[b].NetJ {
			return sorted[a].NetJ < sorted[b].NetJ
		}
		if sorted[a].A.I != sorted[b].A.I {
			return sorted[a].A.I < sorted[b].A.I
		}
		return sorted[a].A.J < sorted[b].A.J
	})

	parent := make(map[member]member)
	// size of each cluster's per-network census: root → net → user.
	census := make(map[member]map[int]int)

	var find func(m member) member
	find = func(m member) member {
		p, ok := parent[m]
		if !ok {
			parent[m] = m
			census[m] = map[int]int{m.net: m.user}
			return m
		}
		if p == m {
			return m
		}
		root := find(p)
		parent[m] = root
		return root
	}

	for _, l := range sorted {
		a := member{net: l.NetI, user: l.A.I}
		b := member{net: l.NetJ, user: l.A.J}
		ra, rb := find(a), find(b)
		if ra == rb {
			continue // already together: consistent duplicate
		}
		// A merge is allowed when the censuses do not claim two distinct
		// users of any one network.
		ok := true
		for net, user := range census[rb] {
			if u, exists := census[ra][net]; exists && u != user {
				ok = false
				break
			}
		}
		if !ok {
			rejected++
			continue
		}
		// Union: attach the smaller census to the larger.
		if len(census[ra]) < len(census[rb]) {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		for net, user := range census[rb] {
			census[ra][net] = user
		}
		delete(census, rb)
	}

	// Each cluster's key is built once and the sort compares the stored
	// strings: the order is clusterKey's byte-wise one ("1:10;" before
	// "1:9;"), and clusters share no member, so no two keys are equal.
	type keyed struct {
		key string
		c   Cluster
	}
	var byKey []keyed
	for root, c := range census {
		if find(root) != root || len(c) < 2 {
			continue
		}
		members := make(map[int]int, len(c))
		for net, user := range c {
			members[net] = user
		}
		cl := Cluster{Members: members}
		byKey = append(byKey, keyed{clusterKey(cl), cl})
	}
	slices.SortFunc(byKey, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for _, k := range byKey {
		clusters = append(clusters, k.c)
	}
	return clusters, rejected
}

// clusterKey gives clusters a deterministic order for stable output.
func clusterKey(c Cluster) string {
	nets := make([]int, 0, len(c.Members))
	for n := range c.Members {
		nets = append(nets, n)
	}
	sort.Ints(nets)
	var key []byte
	for _, n := range nets {
		key = strconv.AppendInt(key, int64(n), 10)
		key = append(key, ':')
		key = strconv.AppendInt(key, int64(c.Members[n]), 10)
		key = append(key, ';')
	}
	return string(key)
}

// PairLinks extracts the (i, j) correspondences implied by the clusters
// — including transitively inferred ones that no pairwise prediction
// stated directly.
func PairLinks(clusters []Cluster, i, j int) []hetnet.Anchor {
	var out []hetnet.Anchor
	for _, c := range clusters {
		a, okA := c.Members[i]
		b, okB := c.Members[j]
		if okA && okB {
			out = append(out, hetnet.Anchor{I: a, J: b})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}
