// Shard extraction: cutting a pair down to the closed neighborhood one
// part's pipeline reads. No production path calls ExtractShard any more —
// distrib ships every shard as pool indices against the warm-counter
// seed, which carries the whole pair once per worker process — and
// nothing else in this file has another caller. It stays for the
// benchmark, whose traced mode times it as partition.extract_shard_s, and
// for the exactness tests that pin the closure argument; a benchmark
// change that retires that metric can delete the file with it.

package partition

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// Shard is one partition packaged for transport-agnostic execution: the
// extracted sub-pair a worker trains on, the Part remapped into the
// sub-pair's index space, and the inverse user maps that translate the
// worker's votes back to original indices.
type Shard struct {
	// Pair is the network pair the shard pipeline runs on. Its anchor
	// set is Part.TrainPos (the only ground truth a worker may see).
	Pair *hetnet.AlignedPair
	// Part carries the shard's training anchors, candidates and budget
	// slice in Pair's index space; Index and Budget are preserved from
	// the source Part, so the per-shard seed offset and query budget
	// match the in-process pipeline exactly.
	Part Part
	// InvUsers1 and InvUsers2 map a Pair user index back to the original
	// pair's index (InvUsers1[sub] = orig).
	InvUsers1, InvUsers2 []int32

	// fwd1/fwd2 are the forward user maps (orig → sub, -1 = dropped).
	// They serve RemapLabels — labels accumulate in original indices
	// round over round while the shard stays in sub-pair space.
	fwd1, fwd2 []int
}

// RemapLabels translates labels from original pair indices into the
// shard's sub-pair index space — the per-round companion of the one-time
// pool remap ExtractShard performs. A label whose endpoint extraction
// dropped is an error: session labels come from the shard's own pool, so
// a miss means the caller routed a label to the wrong shard.
func (s *Shard) RemapLabels(labels []LabeledLink) ([]LabeledLink, error) {
	if len(labels) == 0 {
		return nil, nil
	}
	out := make([]LabeledLink, len(labels))
	for k, l := range labels {
		i, j := l.Link.I, l.Link.J
		if i < 0 || i >= len(s.fwd1) || s.fwd1[i] < 0 {
			return nil, fmt.Errorf("partition: label endpoint %d not in shard %d's sub-network 1", i, s.Part.Index)
		}
		if j < 0 || j >= len(s.fwd2) || s.fwd2[j] < 0 {
			return nil, fmt.Errorf("partition: label endpoint %d not in shard %d's sub-network 2", j, s.Part.Index)
		}
		out[k] = LabeledLink{Link: hetnet.Anchor{I: s.fwd1[i], J: s.fwd2[j]}, Label: l.Label}
	}
	return out, nil
}

// ExtractShard cuts the pair down to the closed neighborhood the part's
// pipeline actually reads, remapping node indices densely (and
// monotonically, so index-based tie-breaks downstream are preserved).
//
// The closure is exact for the meta diagram feature space: every
// proximity feature of a pool link (i, j) is 2·C(i,j)/(rowSum_i +
// colSum_j), so the sub-pair must preserve not only the instances
// connecting pool endpoints but every instance incident to a pool
// endpoint on either side — the marginals range over the whole other
// network. The diagram templates bound that closure and make it
// non-recursive (a BFS on the instance graph to the template depth):
//
//   - follow segments are single hops whose intermediate user is an
//     anchor endpoint, so the only follow edges any instance traverses
//     are those incident to a training anchor — keep exactly them (and
//     their far endpoints);
//   - attribute segments are post→attribute round trips, so instances
//     incident to a pool user involve the pool users' own posts, posts
//     of the other network sharing an attribute value with them, and
//     those posts' writers — keep exactly them, with all attribute
//     edges of kept posts.
//
// Everything else — users far from the shard's anchors, their posts,
// unshared attribute values — is dropped, which is what shrinks bytes
// on the wire and per-worker memory. The extracted features are
// bit-identical to the full-pair pipeline's (counts are small integers,
// so the reordered marginal sums are exact), which the property tests
// assert.
//
// Link types are classified by their declared endpoints (anchor→anchor
// = social, anchor→T = authorship, T→attribute for an authored T). A
// link type outside that shape makes the network opaque to the closure
// argument; ExtractShard then refuses rather than risk silently wrong
// features.
func ExtractShard(pair *hetnet.AlignedPair, part *Part) (*Shard, error) {
	ex1, err := newSideExtractor(pair.G1, pair.AnchorType)
	if err != nil {
		return nil, fmt.Errorf("partition: extract %s: %w", pair.G1.Name(), err)
	}
	ex2, err := newSideExtractor(pair.G2, pair.AnchorType)
	if err != nil {
		return nil, fmt.Errorf("partition: extract %s: %w", pair.G2.Name(), err)
	}

	for _, a := range part.TrainPos {
		ex1.markPool(a.I)
		ex2.markPool(a.J)
	}
	for _, c := range part.Candidates {
		ex1.markPool(c.I)
		ex2.markPool(c.J)
	}
	anchors1 := make([]bool, ex1.userCount)
	anchors2 := make([]bool, ex2.userCount)
	for _, a := range part.TrainPos {
		anchors1[a.I] = true
		anchors2[a.J] = true
	}

	ex1.closeSocial(anchors1)
	ex2.closeSocial(anchors2)
	ex1.markPoolContent()
	ex2.markPoolContent()

	// Cross-network attribute sharing: a post of the other side joins
	// the shard when it carries an attribute value (same association
	// relation, same external ID) of a pool post — it hosts instances
	// incident to a pool endpoint.
	ex2.markSharedContent(ex1.poolAttrIDs())
	ex1.markSharedContent(ex2.poolAttrIDs())
	ex1.includeWritersAndAttrs()
	ex2.includeWritersAndAttrs()

	sub1, userMap1, inv1 := ex1.build()
	sub2, userMap2, inv2 := ex2.build()

	remap := func(links []hetnet.Anchor) ([]hetnet.Anchor, error) {
		out := make([]hetnet.Anchor, len(links))
		for k, l := range links {
			i, j := userMap1[l.I], userMap2[l.J]
			if i < 0 || j < 0 {
				return nil, fmt.Errorf("partition: pool link (%d,%d) dropped by extraction", l.I, l.J)
			}
			out[k] = hetnet.Anchor{I: i, J: j}
		}
		return out, nil
	}
	trainPos, err := remap(part.TrainPos)
	if err != nil {
		return nil, err
	}
	cands, err := remap(part.Candidates)
	if err != nil {
		return nil, err
	}

	sub := hetnet.NewAlignedPair(sub1, sub2)
	sub.AnchorType = pair.AnchorType
	for _, a := range trainPos {
		if err := sub.AddAnchor(a.I, a.J); err != nil {
			return nil, fmt.Errorf("partition: remapped anchor: %w", err)
		}
	}
	sh := &Shard{
		Pair: sub,
		Part: Part{
			Index:      part.Index,
			TrainPos:   trainPos,
			Candidates: cands,
			Budget:     part.Budget,
		},
		InvUsers1: inv1,
		InvUsers2: inv2,
		fwd1:      userMap1,
		fwd2:      userMap2,
	}
	if len(part.Prelabeled) > 0 {
		pre, err := sh.RemapLabels(part.Prelabeled)
		if err != nil {
			return nil, err
		}
		sh.Part.Prelabeled = pre
	}
	return sh, nil
}

// linkRole classifies a link type for the closure argument.
type linkRole int

const (
	roleSocial    linkRole = iota // anchor → anchor (follow)
	roleAuthor                    // anchor → content (write)
	roleAttribute                 // content → attribute (at/checkin/contains)
)

// sideExtractor accumulates the per-network closure state.
type sideExtractor struct {
	g          *hetnet.Network
	anchorType hetnet.NodeType
	userCount  int

	roles map[hetnet.LinkType]linkRole
	// contentTypes are the node types reachable by authorship links.
	contentTypes map[hetnet.NodeType]bool

	users map[hetnet.NodeType][]bool // per node type: included nodes
	pool  []bool                     // pool users (feature endpoints)
	// poolContent marks content nodes written by pool users, the posts
	// whose attribute values recruit the other side's shared posts.
	poolContent map[hetnet.NodeType][]bool

	// keepSocial[lt] marks kept edge positions of a social link type.
	keepSocial map[hetnet.LinkType][]bool
}

func newSideExtractor(g *hetnet.Network, anchorType hetnet.NodeType) (*sideExtractor, error) {
	ex := &sideExtractor{
		g:            g,
		anchorType:   anchorType,
		userCount:    g.NodeCount(anchorType),
		roles:        make(map[hetnet.LinkType]linkRole),
		contentTypes: make(map[hetnet.NodeType]bool),
		users:        make(map[hetnet.NodeType][]bool),
		poolContent:  make(map[hetnet.NodeType][]bool),
		keepSocial:   make(map[hetnet.LinkType][]bool),
	}
	// Two passes: authorship first so attribute links can recognize
	// their content-typed source.
	for _, lt := range g.LinkTypes() {
		src, dst, _ := g.LinkEndpoints(lt)
		switch {
		case src == anchorType && dst == anchorType:
			ex.roles[lt] = roleSocial
		case src == anchorType:
			ex.roles[lt] = roleAuthor
			ex.contentTypes[dst] = true
		}
	}
	for _, lt := range g.LinkTypes() {
		if _, done := ex.roles[lt]; done {
			continue
		}
		src, dst, _ := g.LinkEndpoints(lt)
		if ex.contentTypes[src] && dst != anchorType && !ex.contentTypes[dst] {
			ex.roles[lt] = roleAttribute
			continue
		}
		return nil, fmt.Errorf("link type %q (%s→%s) does not fit the social/authorship/attribute shape", lt, src, dst)
	}
	for _, t := range g.NodeTypes() {
		ex.users[t] = make([]bool, g.NodeCount(t))
	}
	ex.pool = make([]bool, ex.userCount)
	for t := range ex.contentTypes {
		ex.poolContent[t] = make([]bool, g.NodeCount(t))
	}
	return ex, nil
}

func (ex *sideExtractor) markPool(u int) {
	if u >= 0 && u < ex.userCount {
		ex.pool[u] = true
		ex.users[ex.anchorType][u] = true
	}
}

// closeSocial keeps every social edge incident to a training anchor
// endpoint — the only social edges any diagram instance traverses — and
// includes their far endpoints.
func (ex *sideExtractor) closeSocial(anchors []bool) {
	inc := ex.users[ex.anchorType]
	for lt, role := range ex.roles {
		if role != roleSocial {
			continue
		}
		keep := make([]bool, ex.g.LinkCount(lt))
		k := 0
		ex.g.Links(lt, func(from, to int) {
			if anchors[from] || anchors[to] {
				keep[k] = true
				inc[from] = true
				inc[to] = true
			}
			k++
		})
		ex.keepSocial[lt] = keep
	}
}

// markPoolContent marks the content nodes authored by pool users.
func (ex *sideExtractor) markPoolContent() {
	for lt, role := range ex.roles {
		if role != roleAuthor {
			continue
		}
		_, dst, _ := ex.g.LinkEndpoints(lt)
		marks := ex.poolContent[dst]
		ex.g.Links(lt, func(from, to int) {
			if ex.pool[from] {
				marks[to] = true
				ex.users[dst][to] = true
			}
		})
	}
}

// poolAttrIDs collects, per attribute link type, the external IDs of
// attribute values carried by pool content — the join keys the other
// network matches against.
func (ex *sideExtractor) poolAttrIDs() map[hetnet.LinkType]map[string]bool {
	out := make(map[hetnet.LinkType]map[string]bool)
	for lt, role := range ex.roles {
		if role != roleAttribute {
			continue
		}
		src, dst, _ := ex.g.LinkEndpoints(lt)
		poolSrc := ex.poolContent[src]
		ids := make(map[string]bool)
		ex.g.Links(lt, func(from, to int) {
			if poolSrc[from] {
				ids[ex.g.NodeID(dst, to)] = true
			}
		})
		out[lt] = ids
	}
	return out
}

// markSharedContent includes content nodes that carry an attribute
// value (matching association relation and external ID) of the other
// side's pool content — the posts hosting cross-network attribute
// instances incident to pool endpoints.
func (ex *sideExtractor) markSharedContent(otherPoolIDs map[hetnet.LinkType]map[string]bool) {
	for lt, ids := range otherPoolIDs {
		if len(ids) == 0 {
			continue
		}
		role, ok := ex.roles[lt]
		if !ok || role != roleAttribute {
			continue // relation absent here: no joint instances through it
		}
		src, dst, _ := ex.g.LinkEndpoints(lt)
		marks := ex.users[src]
		ex.g.Links(lt, func(from, to int) {
			if ids[ex.g.NodeID(dst, to)] {
				marks[from] = true
			}
		})
	}
}

// includeWritersAndAttrs closes authorship and attribute incidence over
// the included content: every writer of an included content node joins
// (it is the far endpoint of instances through that node), and every
// attribute value of an included content node joins (attribute edges of
// kept posts are kept whole).
func (ex *sideExtractor) includeWritersAndAttrs() {
	for lt, role := range ex.roles {
		if role != roleAuthor {
			continue
		}
		_, dst, _ := ex.g.LinkEndpoints(lt)
		incContent := ex.users[dst]
		incUser := ex.users[ex.anchorType]
		ex.g.Links(lt, func(from, to int) {
			if incContent[to] {
				incUser[from] = true
			}
		})
	}
	for lt, role := range ex.roles {
		if role != roleAttribute {
			continue
		}
		src, dst, _ := ex.g.LinkEndpoints(lt)
		incSrc := ex.users[src]
		incAttr := ex.users[dst]
		ex.g.Links(lt, func(from, to int) {
			if incSrc[from] {
				incAttr[to] = true
			}
		})
	}
}

// build materializes the sub-network. Node indices are assigned in
// ascending original order per type (monotone remap), so every
// index-based tie-break downstream orders sub and original space
// identically. Returns the user forward map (orig → sub, -1 = dropped)
// and inverse map (sub → orig).
func (ex *sideExtractor) build() (*hetnet.Network, []int, []int32) {
	sub := hetnet.NewNetwork(ex.g.Name())
	for _, lt := range ex.g.LinkTypes() {
		src, dst, _ := ex.g.LinkEndpoints(lt)
		if err := sub.DeclareLink(lt, src, dst); err != nil {
			panic(err) // unreachable: fresh network, consistent declarations
		}
	}
	maps := make(map[hetnet.NodeType][]int)
	for _, t := range ex.g.NodeTypes() {
		inc := ex.users[t]
		m := make([]int, len(inc))
		for i := range m {
			m[i] = -1
		}
		for i, in := range inc {
			if in {
				m[i] = sub.AddNode(t, ex.g.NodeID(t, i))
			}
		}
		maps[t] = m
	}
	for _, lt := range ex.g.LinkTypes() {
		src, dst, _ := ex.g.LinkEndpoints(lt)
		srcMap, dstMap := maps[src], maps[dst]
		role := ex.roles[lt]
		keep := ex.keepSocial[lt]
		k := 0
		ex.g.Links(lt, func(from, to int) {
			kept := false
			switch role {
			case roleSocial:
				kept = keep[k]
			case roleAuthor:
				kept = ex.users[dst][to] // content included ⇒ writer included
			case roleAttribute:
				kept = ex.users[src][from] // content included ⇒ attr included
			}
			k++
			if !kept {
				return
			}
			if err := sub.AddLink(lt, srcMap[from], dstMap[to]); err != nil {
				panic(fmt.Sprintf("partition: extraction closure broken for %s edge (%d,%d): %v", lt, from, to, err))
			}
		})
	}
	userMap := maps[ex.anchorType]
	inv := make([]int32, sub.NodeCount(ex.anchorType))
	for orig, s := range userMap {
		if s >= 0 {
			inv[s] = int32(orig)
		}
	}
	return sub, userMap, inv
}
