package metadiag

import (
	"fmt"
	"slices"
	"sort"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// SeedEntry is one anchor-free matrix in raw CSR form, keyed by its
// diagram notation — the unit of the warm-counter seed a coordinator
// ships to workers. Source and Sink are the diagram's endpoint node
// types: what Rows and Cols count. The slices alias the counter's cached
// matrices on export (zero copy); installing validates them structurally
// before trusting them. A matrix held as a block (sparse.CSR.Block) has
// no such slices: its entry carries it as Matrix, with RowPtr, ColIdx
// and Val nil — on export, when the counter holds it so, and on decode,
// when the entry shipped as a block's cells — and encodes and installs
// from it.
type SeedEntry struct {
	Key            string
	Source, Sink   schema.TypedNode
	Rows, Cols     int
	RowPtr, ColIdx []int
	Val            []float64
	Matrix         *sparse.CSR // a block, exported or decoded
}

// NNZ returns the entry's stored entries, in either form.
func (e *SeedEntry) NNZ() int {
	if e.Matrix != nil {
		return e.Matrix.NNZ()
	}
	return len(e.Val)
}

// SeedRelation is one relation of the seed's schema.
type SeedRelation struct {
	Name     hetnet.LinkType
	Src, Dst hetnet.NodeType
}

// Seed is the serialised state of a counter's shared layer for one
// feature library — everything a fork reads that no anchor set changes,
// and nothing of the networks it was derived from: the anchor type and
// its two node counts (the anchor matrix's shape), the schema diagrams
// validate against, the oriented adjacency matrices that anchor-dependent
// diagrams traverse as bare edges, and the count matrices of every
// maximal anchor-free sub-diagram. NewSeededCounter builds a counter from
// it alone; that counter forks and counts exactly as the exporting one —
// the matrices are bit-identical, so downstream features and votes are
// too — without a network to read (the post×post intermediates never
// ship; only the matrices a warm fork actually reads do). Relations,
// attribute types and both entry lists are sorted, so the same counter
// exports byte-identical seeds.
type Seed struct {
	AnchorType hetnet.NodeType
	N1, N2     int
	Relations  []SeedRelation
	AttrTypes  []hetnet.NodeType
	Adjacency  []SeedEntry
	Entries    []SeedEntry
}

// NNZ returns the total stored entries across the seed's count matrices
// (the adjacency entries are the networks' own edges, not counts).
func (s *Seed) NNZ() int {
	n := 0
	for i := range s.Entries {
		n += s.Entries[i].NNZ()
	}
	return n
}

// collectSeedDiagrams walks a diagram exactly as eval would — the same
// canonical form, the same notation keys — and records the
// maximal anchor-free subtrees: an anchor-free node is recorded whole
// (its own sub-diagrams are interior to the cached matrix), an
// anchor-dependent Series/Parallel recurses into its parts. A subtree
// that is a bare Edge — an adjacency the fork multiplies as it is —
// goes to edges, every other to counts.
func collectSeedDiagrams(d schema.Diagram, counts, edges map[string]schema.Diagram) {
	d = schema.Canonical(d)
	if !UsesAnchor(d) {
		if _, isEdge := d.(schema.Edge); isEdge {
			edges[d.Notation()] = d
		} else {
			counts[d.Notation()] = d
		}
		return
	}
	switch v := d.(type) {
	case schema.Series:
		for _, p := range v.Parts {
			collectSeedDiagrams(p, counts, edges)
		}
	case schema.Parallel:
		for _, p := range v.Parts {
			collectSeedDiagrams(p, counts, edges)
		}
	}
}

// countSorted counts every diagram of ds into the shared cache layer (or
// finds it there) and, when pack is set, packages the matrices as
// entries sorted by key: zero-copy views of a compressed matrix, a block
// as itself. The diagrams are counted in parallel (FanOut): each is
// single-flighted and its count is integers, so the matrices are the
// ones a serial count builds; errors are reported in key order.
func (c *Counter) countSorted(ds map[string]schema.Diagram, pack bool) ([]SeedEntry, error) {
	keys := make([]string, 0, len(ds))
	for k := range ds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ms, errs := make([]*sparse.CSR, len(keys)), make([]error, len(keys))
	FanOut(len(keys), func(i int) { ms[i], errs[i] = c.Count(ds[keys[i]]) })
	var out []SeedEntry
	for i, k := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("metadiag: warm %q: %w", k, errs[i])
		}
		if !pack {
			continue
		}
		d, m := ds[k], ms[i]
		e := SeedEntry{Key: k, Source: d.Source(), Sink: d.Sink()}
		if m.Block() {
			e.Rows, e.Cols = m.Dims()
			e.Matrix = m
		} else {
			e.Rows, e.Cols, e.RowPtr, e.ColIdx, e.Val = m.Raw()
		}
		out = append(out, e)
	}
	return out, nil
}

// warm evaluates the anchor-free layer feats read into the shared cache
// (or finds it there): the traversed adjacencies and the counts of the
// maximal anchor-free sub-diagrams, packaged as entries when pack is set.
func (c *Counter) warm(feats []schema.Named, pack bool) (adjacency, counts []SeedEntry, err error) {
	ds, edges := make(map[string]schema.Diagram), make(map[string]schema.Diagram)
	for _, f := range feats {
		collectSeedDiagrams(f.D, ds, edges)
	}
	if adjacency, err = c.countSorted(edges, pack); err != nil {
		return nil, nil, err
	}
	if counts, err = c.countSorted(ds, pack); err != nil {
		return nil, nil, err
	}
	return adjacency, counts, nil
}

// Warm evaluates the anchor-free layer feats read — everything a fork
// recounts nothing of when its anchors change. The counter's anchor set
// is irrelevant and the layer is single-flighted, so a caller can warm in
// the background while other goroutines plan, fork and count against the
// same counter: each matrix is evaluated once, by whoever asks first.
func (c *Counter) Warm(feats []schema.Named) error {
	_, _, err := c.warm(feats, false)
	return err
}

// ExportSeed warms the counter for feats and packages the anchor-free
// layer, with the schema and dimensions it is read against, as a
// deterministic, re-derivable seed. Nothing exported traverses an anchor
// edge, so a coordinator can export from a counter mid-plan without
// coordination.
func (c *Counter) ExportSeed(feats []schema.Named) (*Seed, error) {
	adjacency, counts, err := c.warm(feats, true)
	if err != nil {
		return nil, err
	}
	s := &Seed{
		AnchorType: c.sh.anchorType, N1: c.sh.n1, N2: c.sh.n2,
		AttrTypes: c.sh.sch.AttributeTypes(), Adjacency: adjacency, Entries: counts,
	}
	for _, lt := range c.sh.sch.Relations() {
		src, dst, _ := c.sh.sch.Relation(lt)
		s.Relations = append(s.Relations, SeedRelation{Name: lt, Src: src, Dst: dst})
	}
	return s, nil
}

// NewSeededCounter builds a network-free counter whose shared layer is
// exactly the seed: the schema from its relations, the anchor matrix's
// shape from its two node counts, every adjacency and count matrix
// installed under its notation. The seed is treated as hostile. Each
// compressed matrix is structurally validated (sparse.FromRaw); a block
// arrives built, and any bytes are valid cells. Every matrix
// must agree on the size of every node type it touches — the anchor
// type's two sizes being the declared N1 and N2 — so a seed that installs
// cannot make a later multiply meet mismatched shapes. The anchor set
// starts empty; a diagram whose anchor-free part the seed does not hold
// fails its Count with an error naming that part.
func NewSeededCounter(s *Seed) (*Counter, error) {
	if s.N1 < 0 || s.N2 < 0 {
		return nil, fmt.Errorf("metadiag: seed declares %d and %d %s nodes", s.N1, s.N2, s.AnchorType)
	}
	relations := make(map[hetnet.LinkType][2]hetnet.NodeType, len(s.Relations))
	for _, r := range s.Relations {
		relations[r.Name] = [2]hetnet.NodeType{r.Src, r.Dst}
	}
	sh := &sharedState{
		sch:        schema.NewSchema(relations, s.AttrTypes),
		anchorType: s.AnchorType,
		n1:         s.N1,
		n2:         s.N2,
		dims: map[schema.TypedNode]int{
			{Type: s.AnchorType, Net: schema.Net1}: s.N1,
			{Type: s.AnchorType, Net: schema.Net2}: s.N2,
		},
		counts: make(map[string]*sparse.CSR, len(s.Adjacency)+len(s.Entries)),
		bytes:  newCountBytes(),
		prox:   make(map[*sparse.CSR]*Proximity),
	}
	if err := sh.install(s.Adjacency, true); err != nil {
		return nil, err
	}
	if err := sh.install(s.Entries, false); err != nil {
		return nil, err
	}
	c := &Counter{sh: sh, counts: make(map[string]*sparse.CSR), flight: make(map[string]*inflight)}
	c.SetAnchors(nil)
	return c, nil
}

// install puts the entries' matrices into the shared cache layer,
// skipping keys already present (a resident matrix was derived locally
// and is already correct). Each entry is structurally validated, and on
// a seeded counter sized against the node types it names — a corrupt or
// hostile seed fails here rather than deep inside a later multiply. A
// block entry is installed as it is, its shape checked against the
// entry's: every byte of a block is a valid cell, whoever built it.
// Adjacency entries (edges set) must hold only 1s: schema.Canonical
// keeps a repeated edge once, which is exact only for 0/1 edge counts,
// and a seed's are the one edge matrices no Binarize built.
func (sh *sharedState) install(entries []SeedEntry, edges bool) error {
	for i := range entries {
		e := &entries[i]
		if sh.pair == nil {
			for _, side := range [2]struct {
				node schema.TypedNode
				size int
			}{{e.Source, e.Rows}, {e.Sink, e.Cols}} {
				if want, ok := sh.dims[side.node]; !ok {
					sh.dims[side.node] = side.size
				} else if want != side.size {
					return fmt.Errorf("metadiag: seed entry %q is %dx%d, but %s has %d nodes", e.Key, e.Rows, e.Cols, side.node, want)
				}
			}
		}
		m := e.Matrix
		if m == nil {
			var err error
			if m, err = sparse.FromRaw(e.Rows, e.Cols, e.RowPtr, e.ColIdx, e.Val); err != nil {
				return fmt.Errorf("metadiag: seed entry %q: %w", e.Key, err)
			}
		} else if r, c := m.Dims(); r != e.Rows || c != e.Cols {
			return fmt.Errorf("metadiag: seed entry %q is %dx%d, its matrix %dx%d", e.Key, e.Rows, e.Cols, r, c)
		}
		if edges {
			// A view of a compressed matrix's values (no decoder ships an
			// adjacency as a block).
			if _, _, _, _, val := m.Raw(); slices.ContainsFunc(val, func(v float64) bool { return v != 1 }) {
				return fmt.Errorf("metadiag: seed adjacency %q holds a value other than 1", e.Key)
			}
		}
		sh.mu.Lock()
		if _, ok := sh.counts[e.Key]; !ok {
			sh.store(e.Key, m)
		}
		sh.mu.Unlock()
	}
	return nil
}

// SeedInto installs the seed's count matrices into a pair-built
// counter's shared anchor-free cache layer; its adjacencies stay the
// pair's own. Entries whose keys no feature ever asks for are harmless
// dead weight; entries a feature does ask for are trusted to be that
// notation's true counts.
func (c *Counter) SeedInto(s *Seed) error { return c.sh.install(s.Entries, false) }
