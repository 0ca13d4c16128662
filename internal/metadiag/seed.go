package metadiag

import (
	"fmt"
	"sort"

	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// SeedEntry is one anchor-free count matrix in raw CSR form, keyed by
// its diagram notation — the unit of the warm-counter seed a
// coordinator ships to workers. The slices alias the counter's cached
// matrices on export (zero copy); SeedInto validates them structurally
// before trusting them.
type SeedEntry struct {
	Key            string
	Rows, Cols     int
	RowPtr, ColIdx []int
	Val            []float64
}

// Seed is a compact export of a counter's shared attribute-only cache
// layer: the count matrices of every maximal anchor-free sub-diagram of
// a feature library. A worker that installs the seed into a fresh
// counter (SeedInto) forks and counts exactly as if it had derived the
// shared layer itself — the matrices are bit-identical, so downstream
// features and votes are too — but skips the expensive attribute-path
// products (the post×post intermediates never ship; only the final
// user×user matrices a warm fork actually reads do). Entries are sorted
// by key, so the same counter exports byte-identical seeds.
type Seed struct {
	Entries []SeedEntry
}

// NNZ returns the total stored entries across the seed's matrices.
func (s *Seed) NNZ() int {
	n := 0
	for i := range s.Entries {
		n += len(s.Entries[i].Val)
	}
	return n
}

// collectSeedDiagrams walks a diagram exactly as eval would — the same
// wrapper normalization, the same notation keys — and records the
// maximal anchor-free subtrees: an anchor-free node is recorded whole
// (its own sub-diagrams are interior to the cached matrix), an
// anchor-dependent Series/Parallel recurses into its parts. Bare Edge
// units are skipped — adjacency matrices re-derive from the pair in
// O(links) and live in the adjacency cache, not the count cache.
func collectSeedDiagrams(d schema.Diagram, seen map[string]schema.Diagram) {
	for {
		switch v := d.(type) {
		case schema.MetaPath:
			d = v.AsDiagram()
			continue
		case schema.Series:
			if len(v.Parts) == 1 {
				d = v.Parts[0]
				continue
			}
		case schema.Parallel:
			if len(v.Parts) == 1 {
				d = v.Parts[0]
				continue
			}
		}
		break
	}
	if !UsesAnchor(d) {
		if _, isEdge := d.(schema.Edge); isEdge {
			return
		}
		seen[d.Notation()] = d
		return
	}
	switch v := d.(type) {
	case schema.Series:
		for _, p := range v.Parts {
			collectSeedDiagrams(p, seen)
		}
	case schema.Parallel:
		for _, p := range v.Parts {
			collectSeedDiagrams(p, seen)
		}
	}
}

// warm counts every maximal anchor-free sub-diagram of feats into the
// shared cache layer (or finds it there) and returns the matrices with
// their notation keys, sorted by key.
func (c *Counter) warm(feats []schema.Named) (keys []string, counts []*sparse.CSR, err error) {
	seen := make(map[string]schema.Diagram)
	for _, f := range feats {
		collectSeedDiagrams(f.D, seen)
	}
	keys = make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	counts = make([]*sparse.CSR, len(keys))
	for n, k := range keys {
		if counts[n], err = c.Count(seen[k]); err != nil {
			return nil, nil, fmt.Errorf("metadiag: warm %q: %w", k, err)
		}
	}
	return keys, counts, nil
}

// Warm evaluates the anchor-free count layer feats read — everything a
// fork recounts nothing of when its anchors change. The counter's anchor
// set is irrelevant and the layer is single-flighted, so a caller can
// warm in the background while other goroutines plan, fork and count
// against the same counter: each matrix is evaluated once, by whoever
// asks first.
func (c *Counter) Warm(feats []schema.Named) error {
	_, _, err := c.warm(feats)
	return err
}

// ExportSeed warms the counter for feats and packages the anchor-free
// layer as a deterministic, re-derivable seed. Nothing exported
// traverses an anchor edge, so a coordinator can export from a counter
// mid-plan without coordination.
func (c *Counter) ExportSeed(feats []schema.Named) (*Seed, error) {
	keys, counts, err := c.warm(feats)
	if err != nil {
		return nil, err
	}
	s := &Seed{Entries: make([]SeedEntry, len(keys))}
	for n, m := range counts {
		rows, cols, rowPtr, colIdx, val := m.Raw()
		s.Entries[n] = SeedEntry{Key: keys[n], Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	}
	return s, nil
}

// SeedInto installs the seed's matrices into the counter's shared
// anchor-free cache layer, skipping keys already present (a resident
// matrix was derived locally and is already correct). Each entry is
// structurally validated — a corrupt or hostile seed fails here rather
// than deep inside a later multiply. Entries whose keys no feature ever
// asks for are harmless dead weight; entries a feature does ask for are
// trusted to be that notation's true counts, the same trust a Job's
// networks get.
func (c *Counter) SeedInto(s *Seed) error {
	for i := range s.Entries {
		e := &s.Entries[i]
		m, err := sparse.FromRaw(e.Rows, e.Cols, e.RowPtr, e.ColIdx, e.Val)
		if err != nil {
			return fmt.Errorf("metadiag: seed entry %q: %w", e.Key, err)
		}
		c.sh.mu.Lock()
		if _, ok := c.sh.counts[e.Key]; !ok {
			c.sh.counts[e.Key] = m
		}
		c.sh.mu.Unlock()
	}
	return nil
}
