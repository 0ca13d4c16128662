// Package hetnet implements the attributed heterogeneous social network
// store from Definition 1 of the paper: a graph G = (V, E, T) with typed
// nodes, typed links and node attributes, plus the multiple-aligned-
// networks container from Definition 2.
//
// Attributes are modelled as first-class nodes of attribute node types
// (Word, Location, Timestamp) connected to posts by association link
// types (contains, checkin, at). This unification is exactly how the
// paper's meta diagrams treat them — attribute types appear as nodes in
// the diagrams of Table I — and it lets the counting engine use one
// adjacency representation for everything.
//
// Node identity is two-level: every node has a dense per-type integer
// index (used by the matrix machinery) and a stable external string ID
// (used for I/O and debugging).
package hetnet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/activeiter/activeiter/internal/sparse"
)

// NodeType names a category of nodes (e.g. "user", "post", "location").
type NodeType string

// LinkType names a category of links (e.g. "follow", "write").
type LinkType string

// Standard node and link types for the Foursquare/Twitter-style schema
// used throughout the paper (Figure 2).
const (
	User      NodeType = "user"
	Post      NodeType = "post"
	Word      NodeType = "word"
	Location  NodeType = "location"
	Timestamp NodeType = "timestamp"

	Follow   LinkType = "follow"   // user → user
	Write    LinkType = "write"    // user → post
	At       LinkType = "at"       // post → timestamp
	Checkin  LinkType = "checkin"  // post → location
	Contains LinkType = "contains" // post → word
)

// AttributeTypes lists the node types the paper treats as attributes.
var AttributeTypes = []NodeType{Word, Location, Timestamp}

// nodeTable maps between external string IDs and dense indices for one
// node type.
type nodeTable struct {
	ids   []string
	index map[string]int
}

// linkTable stores directed edges of one link type as parallel index
// slices plus the endpoint node types.
type linkTable struct {
	src, dst NodeType
	from, to []int
}

// Network is a mutable attributed heterogeneous network. The zero value
// is not usable; create one with NewNetwork.
type Network struct {
	name  string
	nodes map[NodeType]*nodeTable
	links map[LinkType]*linkTable
	// adjMu guards adjCache: a built network is read from many goroutines
	// at once (parallel Recompute, loopback workers sharing one pair), and
	// Adjacency fills the cache on first use.
	adjMu     sync.Mutex
	adjCache  map[LinkType]*sparse.CSR
	nodeOrder []NodeType // registration order, for deterministic iteration
	linkOrder []LinkType
	// fp memoises Fingerprint; every mutation clears it (mutated).
	fp atomic.Pointer[uint64]
}

// mutated forgets the memoised fingerprint. The load keeps a network
// under construction, whose fingerprint nobody has asked for, off the
// atomic store.
func (g *Network) mutated() {
	if g.fp.Load() != nil {
		g.fp.Store(nil)
	}
}

// NewNetwork returns an empty network with the given display name.
func NewNetwork(name string) *Network {
	return &Network{
		name:     name,
		nodes:    make(map[NodeType]*nodeTable),
		links:    make(map[LinkType]*linkTable),
		adjCache: make(map[LinkType]*sparse.CSR),
	}
}

// Name returns the network's display name.
func (g *Network) Name() string { return g.name }

// table returns (creating on demand) the node table for t.
func (g *Network) table(t NodeType) *nodeTable {
	nt, ok := g.nodes[t]
	if !ok {
		nt = &nodeTable{index: make(map[string]int)}
		g.nodes[t] = nt
		g.nodeOrder = append(g.nodeOrder, t)
	}
	return nt
}

// AddNode interns a node of type t with external ID id and returns its
// dense index. Adding the same (t, id) twice returns the existing index.
func (g *Network) AddNode(t NodeType, id string) int {
	nt := g.table(t)
	if idx, ok := nt.index[id]; ok {
		return idx
	}
	idx := len(nt.ids)
	nt.ids = append(nt.ids, id)
	nt.index[id] = idx
	g.mutated()
	return idx
}

// NodeCount returns the number of nodes of type t.
func (g *Network) NodeCount(t NodeType) int {
	if nt, ok := g.nodes[t]; ok {
		return len(nt.ids)
	}
	return 0
}

// NodeID returns the external ID of the node (t, idx). It panics when the
// index is out of range.
func (g *Network) NodeID(t NodeType, idx int) string {
	nt, ok := g.nodes[t]
	if !ok || idx < 0 || idx >= len(nt.ids) {
		panic(fmt.Sprintf("hetnet: node (%s,%d) out of range in %q", t, idx, g.name))
	}
	return nt.ids[idx]
}

// NodeIndex returns the dense index for (t, id) and whether it exists.
func (g *Network) NodeIndex(t NodeType, id string) (int, bool) {
	nt, ok := g.nodes[t]
	if !ok {
		return 0, false
	}
	idx, ok := nt.index[id]
	return idx, ok
}

// NodeTypes returns the node types present, in registration order.
func (g *Network) NodeTypes() []NodeType {
	out := make([]NodeType, len(g.nodeOrder))
	copy(out, g.nodeOrder)
	return out
}

// DeclareLink registers the link type lt with source and destination node
// types. Redeclaring with the same endpoints is a no-op; conflicting
// endpoints return an error.
func (g *Network) DeclareLink(lt LinkType, src, dst NodeType) error {
	if existing, ok := g.links[lt]; ok {
		if existing.src != src || existing.dst != dst {
			return fmt.Errorf("hetnet: link type %q already declared as %s→%s, cannot redeclare as %s→%s",
				lt, existing.src, existing.dst, src, dst)
		}
		return nil
	}
	g.table(src)
	g.table(dst)
	g.links[lt] = &linkTable{src: src, dst: dst}
	g.linkOrder = append(g.linkOrder, lt)
	g.mutated()
	return nil
}

// LinkEndpoints returns the declared source and destination node types of
// lt, or false when the link type is unknown.
func (g *Network) LinkEndpoints(lt LinkType) (src, dst NodeType, ok bool) {
	t, ok := g.links[lt]
	if !ok {
		return "", "", false
	}
	return t.src, t.dst, true
}

// LinkTypes returns the declared link types in registration order.
func (g *Network) LinkTypes() []LinkType {
	out := make([]LinkType, len(g.linkOrder))
	copy(out, g.linkOrder)
	return out
}

// AddLink appends a directed edge of type lt between the nodes with the
// given dense indices. The link type must have been declared and the
// indices must be in range.
func (g *Network) AddLink(lt LinkType, from, to int) error {
	t, ok := g.links[lt]
	if !ok {
		return fmt.Errorf("hetnet: link type %q not declared in %q", lt, g.name)
	}
	if from < 0 || from >= g.NodeCount(t.src) {
		return fmt.Errorf("hetnet: %s link source index %d out of range [0,%d)", lt, from, g.NodeCount(t.src))
	}
	if to < 0 || to >= g.NodeCount(t.dst) {
		return fmt.Errorf("hetnet: %s link target index %d out of range [0,%d)", lt, to, g.NodeCount(t.dst))
	}
	t.from = append(t.from, from)
	t.to = append(t.to, to)
	g.mutated()
	g.adjMu.Lock()
	delete(g.adjCache, lt)
	g.adjMu.Unlock()
	return nil
}

// AddLinkByID is AddLink resolving (or interning) nodes by external ID.
func (g *Network) AddLinkByID(lt LinkType, fromID, toID string) error {
	t, ok := g.links[lt]
	if !ok {
		return fmt.Errorf("hetnet: link type %q not declared in %q", lt, g.name)
	}
	return g.AddLink(lt, g.AddNode(t.src, fromID), g.AddNode(t.dst, toID))
}

// LinkCount returns the number of edges of type lt.
func (g *Network) LinkCount(lt LinkType) int {
	if t, ok := g.links[lt]; ok {
		return len(t.from)
	}
	return 0
}

// Adjacency returns the 0/1 adjacency matrix of link type lt, shaped
// |src type| × |dst type|. Parallel edges collapse to a single 1. The
// matrix is cached until the next AddLink of the same type. Safe for
// concurrent use on a network that is no longer being mutated; the first
// caller per link type builds under the lock, so a matrix is built once.
func (g *Network) Adjacency(lt LinkType) (*sparse.CSR, error) {
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	if m, ok := g.adjCache[lt]; ok {
		return m, nil
	}
	t, ok := g.links[lt]
	if !ok {
		return nil, fmt.Errorf("hetnet: link type %q not declared in %q", lt, g.name)
	}
	b := sparse.NewBuilder(g.NodeCount(t.src), g.NodeCount(t.dst))
	for k := range t.from {
		b.Add(t.from[k], t.to[k], 1)
	}
	m := b.Build().Binarize() // collapse duplicate edges to 1
	g.adjCache[lt] = m
	return m, nil
}

// Links calls fn(from, to) for every edge of type lt in insertion order.
func (g *Network) Links(lt LinkType, fn func(from, to int)) {
	t, ok := g.links[lt]
	if !ok {
		return
	}
	for k := range t.from {
		fn(t.from[k], t.to[k])
	}
}

// Fingerprint hashes the network's full structure — name, node tables in
// registration order, link tables with every edge — with FNV-64a over
// length-delimited primitives. Two structurally identical networks
// fingerprint identically across processes (no map iteration). Snapshot
// metadata and the distrib seed fingerprint both store it, so the layout
// is frozen: changing it invalidates written artifacts. The hash walks
// every ID and edge a byte at a time, so it is computed once and kept
// until the next AddNode, DeclareLink or AddLink; like Adjacency it is
// safe for concurrent use on a network that is no longer being mutated.
func (g *Network) Fingerprint() uint64 {
	if p := g.fp.Load(); p != nil {
		return *p
	}
	h := fnv.New64a()
	var num [8]byte
	writeInt := func(v int64) {
		for i := 0; i < 8; i++ {
			num[i] = byte(v >> (8 * i))
		}
		h.Write(num[:])
	}
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		h.Write([]byte(s))
	}
	writeStr(g.name)
	for _, t := range g.nodeOrder {
		ids := g.nodes[t].ids
		writeStr(string(t))
		writeInt(int64(len(ids)))
		for _, id := range ids {
			writeStr(id)
		}
	}
	for _, lt := range g.linkOrder {
		t := g.links[lt]
		writeStr(string(lt))
		writeStr(string(t.src))
		writeStr(string(t.dst))
		writeInt(int64(len(t.from)))
		for k := range t.from {
			writeInt(int64(t.from[k]))
			writeInt(int64(t.to[k]))
		}
	}
	sum := h.Sum64()
	g.fp.Store(&sum)
	return sum
}

// Neighbors returns the distinct out-neighbors of node (src-type, idx)
// under link type lt, sorted ascending.
func (g *Network) Neighbors(lt LinkType, idx int) ([]int, error) {
	adj, err := g.Adjacency(lt)
	if err != nil {
		return nil, err
	}
	if idx < 0 || idx >= adj.Rows() {
		return nil, fmt.Errorf("hetnet: Neighbors index %d out of range [0,%d)", idx, adj.Rows())
	}
	var out []int
	adj.Row(idx, func(j int, v float64) { out = append(out, j) })
	return out, nil
}

// Degree returns the out-degree (distinct targets) of node idx under lt.
func (g *Network) Degree(lt LinkType, idx int) (int, error) {
	adj, err := g.Adjacency(lt)
	if err != nil {
		return 0, err
	}
	if idx < 0 || idx >= adj.Rows() {
		return 0, fmt.Errorf("hetnet: Degree index %d out of range [0,%d)", idx, adj.Rows())
	}
	return adj.RowNNZ(idx), nil
}

// Validate checks internal consistency: every edge references in-range
// node indices and every cached adjacency matches the declared shape.
func (g *Network) Validate() error {
	for lt, t := range g.links {
		ns, nd := g.NodeCount(t.src), g.NodeCount(t.dst)
		for k := range t.from {
			if t.from[k] < 0 || t.from[k] >= ns {
				return fmt.Errorf("hetnet: %q edge %d has source %d out of range [0,%d)", lt, k, t.from[k], ns)
			}
			if t.to[k] < 0 || t.to[k] >= nd {
				return fmt.Errorf("hetnet: %q edge %d has target %d out of range [0,%d)", lt, k, t.to[k], nd)
			}
		}
	}
	return nil
}

// Stats summarizes node and link counts, the shape of Table II.
type Stats struct {
	Name      string
	NodeCount map[NodeType]int
	LinkCount map[LinkType]int
}

// Stats returns count summaries for the network.
func (g *Network) Stats() Stats {
	s := Stats{
		Name:      g.name,
		NodeCount: make(map[NodeType]int),
		LinkCount: make(map[LinkType]int),
	}
	for t := range g.nodes {
		s.NodeCount[t] = g.NodeCount(t)
	}
	for lt := range g.links {
		s.LinkCount[lt] = g.LinkCount(lt)
	}
	return s
}

// String renders a one-line summary of the stats for logging.
func (s Stats) String() string {
	nodeTypes := make([]string, 0, len(s.NodeCount))
	for t := range s.NodeCount {
		nodeTypes = append(nodeTypes, string(t))
	}
	sort.Strings(nodeTypes)
	out := fmt.Sprintf("%s:", s.Name)
	for _, t := range nodeTypes {
		out += fmt.Sprintf(" %s=%d", t, s.NodeCount[NodeType(t)])
	}
	linkTypes := make([]string, 0, len(s.LinkCount))
	for t := range s.LinkCount {
		linkTypes = append(linkTypes, string(t))
	}
	sort.Strings(linkTypes)
	for _, t := range linkTypes {
		out += fmt.Sprintf(" %s=%d", t, s.LinkCount[LinkType(t)])
	}
	return out
}

// NewSocialNetwork returns a network pre-declared with the paper's
// Foursquare/Twitter-style schema: users follow users, users write posts,
// posts carry timestamps, locations and words.
func NewSocialNetwork(name string) *Network {
	g := NewNetwork(name)
	must := func(err error) {
		if err != nil {
			panic(err) // unreachable: fresh network, consistent declarations
		}
	}
	must(g.DeclareLink(Follow, User, User))
	must(g.DeclareLink(Write, User, Post))
	must(g.DeclareLink(At, Post, Timestamp))
	must(g.DeclareLink(Checkin, Post, Location))
	must(g.DeclareLink(Contains, Post, Word))
	return g
}
