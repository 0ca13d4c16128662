// User-range splitting: the serving-side counterpart of the training
// tier's candidate-space partitioning. A monolithic artifact caps the
// serve tier at what one machine holds; Split cuts it into per-range
// shard artifacts a fleet of alignd replicas serves behind the alignr
// router, and Merge proves the cut lossless by reassembling the exact
// parent.
//
// The partition key is the net-1 user index: every pool link, queried
// label and net-1 candidate list hangs off exactly one net-1 user, so a
// half-open range [Lo, Hi) owns an exact, disjoint slice of each. The
// net-2 read side — every match (the net-2 match index is
// last-write-wins over all of them) and every net-2 candidate list — is
// NOT owned by one range, so every shard carries the parent's whole
// copy: any replica answers a net-2 lookup byte-for-byte like the
// monolith, and the router sends it to one replica instead of fanning
// out. The copy is small by the paper's one-to-one constraint: at most
// one match and one top-k list per net-2 user.
//
// Every shard keeps the full Meta user tables and the full Model
// section: tables so any replica can resolve external IDs, models
// because weight vectors are tiny next to the per-user sections. What
// marks a shard as a shard is Meta.Shard — its range, its position in
// the split, the split epoch, and the parent artifact's content
// fingerprint — which the serving layer surfaces on /statusz so the
// router can discover the fleet's range table instead of being
// configured with one.
package snapshot

import (
	"fmt"
	"slices"
	"sort"
)

// UserRange is a half-open interval [Lo, Hi) of net-1 user indices.
type UserRange struct {
	Lo, Hi int32
}

// Contains reports whether net-1 user index i falls in the range.
func (r UserRange) Contains(i int32) bool { return i >= r.Lo && i < r.Hi }

// String renders the range in the [lo,hi) form used in logs, statusz
// and the split tool's output.
func (r UserRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// ShardInfo marks an artifact as one shard of a split. It lives in
// Meta so provenance travels with the shard: which slice it owns,
// where it sits in the split, and which parent artifact it came from.
type ShardInfo struct {
	// Range is the net-1 user index slice this shard owns.
	Range UserRange
	// Index/Count position the shard in its split (0 ≤ Index < Count).
	Index, Count int
	// Epoch groups the shards of one split: every shard cut from one
	// parent in one Split call carries the same epoch (the parent's
	// CreatedUnix), so a router can tell a coherent fleet from one
	// mid-rollout with mixed artifact generations.
	Epoch int64
	// ParentFP is the parent artifact's content fingerprint (see
	// Snapshot.Fingerprint): the exact identity of the artifact the
	// shard was cut from.
	ParentFP uint64
}

// Fingerprint is the artifact's content identity (see Encode): the one
// Split stamps into each shard and the setsync protocol uses to decide
// whether two artifacts differ at all.
func (s *Snapshot) Fingerprint() (uint64, error) {
	_, fp, err := s.Encode()
	return fp, err
}

// EvenRanges cuts [0, n) into k near-equal contiguous user ranges (the
// first n%k ranges get the extra user). k > n yields n singleton
// ranges.
func EvenRanges(n, k int) []UserRange {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if k == 0 {
		return []UserRange{{0, 0}}
	}
	out := make([]UserRange, 0, k)
	base, extra := n/k, n%k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + base
		if i < extra {
			hi++
		}
		out = append(out, UserRange{Lo: int32(lo), Hi: int32(hi)})
		lo = hi
	}
	return out
}

// checkRanges validates that ranges tile [0, n1) exactly: sorted,
// non-empty, contiguous, covering. A partial or overlapping tiling
// would make Split silently lossy, so it is an error instead.
func checkRanges(ranges []UserRange, n1 int32) error {
	if len(ranges) == 0 {
		return fmt.Errorf("snapshot: split needs at least one range")
	}
	want := int32(0)
	for i, r := range ranges {
		if r.Lo != want {
			return fmt.Errorf("snapshot: range %d is %s, want Lo=%d (ranges must tile [0,%d) in order)", i, r, want, n1)
		}
		if r.Hi <= r.Lo {
			return fmt.Errorf("snapshot: range %d is %s: empty or inverted", i, r)
		}
		want = r.Hi
	}
	if want != n1 {
		return fmt.Errorf("snapshot: ranges end at %d, want %d (the full net-1 user table)", want, n1)
	}
	return nil
}

// byNet cuts canonically ordered candidate lists (see Canonicalize)
// into the net-1 lists and the net-2 lists.
func byNet(c []UserCandidates) (net1, net2 []UserCandidates) {
	k := sort.Search(len(c), func(i int) bool { return c[i].Net >= 2 })
	return c[:k], c[k:]
}

// Split partitions the artifact by net-1 user range into one shard
// artifact per range. Ranges must tile [0, len(Users1)) exactly. Each
// shard carries its range's pool links, queried labels and net-1
// candidate lists, the parent's whole net-2 read side (every match and
// every net-2 candidate list), the full user tables and model section,
// and a Meta.Shard stamp naming the range, the split epoch and the
// parent fingerprint. Lists are copied from the parent, never
// re-derived. Merge of the result reproduces the parent exactly; the
// parent itself must not already be a shard.
func Split(s *Snapshot, ranges []UserRange) ([]*Snapshot, error) {
	if s == nil {
		return nil, fmt.Errorf("snapshot: split of nil snapshot")
	}
	if s.Meta.Shard != nil {
		return nil, fmt.Errorf("snapshot: artifact is already shard %d/%d of epoch %d; split the parent instead",
			s.Meta.Shard.Index, s.Meta.Shard.Count, s.Meta.Shard.Epoch)
	}
	if err := checkRanges(ranges, int32(len(s.Meta.Users1))); err != nil {
		return nil, err
	}
	parentFP, err := s.Fingerprint() // validates s on the way
	if err != nil {
		return nil, err
	}

	net1, net2 := byNet(s.Cands)
	shards := make([]*Snapshot, len(ranges))
	for si, r := range ranges {
		shard := &Snapshot{
			Meta:    s.Meta,
			Model:   s.Model,
			TopK:    s.TopK,
			Matches: slices.Clone(s.Matches),
		}
		shard.Meta.Shard = &ShardInfo{
			Range:    r,
			Index:    si,
			Count:    len(ranges),
			Epoch:    s.Meta.CreatedUnix,
			ParentFP: parentFP,
		}
		// The parent's sections are sorted by net-1 index, so each
		// range's slice is a contiguous run; filtering preserves order.
		for _, p := range s.Pool {
			if r.Contains(p.I) {
				shard.Pool = append(shard.Pool, p)
			}
		}
		for _, l := range s.Labels {
			if r.Contains(l.I) {
				shard.Labels = append(shard.Labels, l)
			}
		}
		for _, uc := range net1 {
			if r.Contains(uc.User) {
				shard.Cands = append(shard.Cands, uc)
			}
		}
		shard.Cands = append(shard.Cands, net2...)
		if err := shard.Validate(); err != nil {
			return nil, fmt.Errorf("snapshot: shard %d %s: %w", si, r, err)
		}
		shards[si] = shard
	}
	return shards, nil
}

// sameNet2Side reports whether two shards carry equal replicated net-2
// read sides: the match list and every net-2 candidate list.
func sameNet2Side(a, b *Snapshot) bool {
	_, a2 := byNet(a.Cands)
	_, b2 := byNet(b.Cands)
	return slices.Equal(a.Matches, b.Matches) &&
		slices.EqualFunc(a2, b2, func(x, y UserCandidates) bool {
			return x.User == y.User && slices.Equal(x.Items, y.Items)
		})
}

// Merge reassembles a full split back into the parent artifact. The
// shards must form one complete split: same epoch, same parent
// fingerprint, same count, equal replicated net-2 sides, ranges tiling
// the user table, supplied in any order. The replicated side is taken
// once; the per-range sections concatenate. The result is validated
// against the recorded parent fingerprint, so a wrong or stale shard
// set fails loudly instead of producing a silently different artifact.
func Merge(shards []*Snapshot) (*Snapshot, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("snapshot: merge of no shards")
	}
	// Order by shard index without mutating the caller's slice.
	ordered := make([]*Snapshot, len(shards))
	for _, sh := range shards {
		if sh == nil || sh.Meta.Shard == nil {
			return nil, fmt.Errorf("snapshot: merge input is not a shard artifact")
		}
		info := sh.Meta.Shard
		if info.Count != len(shards) {
			return nil, fmt.Errorf("snapshot: shard %d says the split has %d shards, got %d", info.Index, info.Count, len(shards))
		}
		if info.Index < 0 || info.Index >= len(shards) {
			return nil, fmt.Errorf("snapshot: shard index %d outside [0,%d)", info.Index, len(shards))
		}
		if ordered[info.Index] != nil {
			return nil, fmt.Errorf("snapshot: duplicate shard index %d", info.Index)
		}
		ordered[info.Index] = sh
	}
	first := ordered[0].Meta.Shard
	parent := &Snapshot{
		Meta:    ordered[0].Meta,
		Model:   ordered[0].Model,
		TopK:    ordered[0].TopK,
		Matches: ordered[0].Matches,
	}
	parent.Meta.Shard = nil
	ranges := make([]UserRange, 0, len(ordered))
	for i, sh := range ordered {
		info := sh.Meta.Shard
		if info.Epoch != first.Epoch || info.ParentFP != first.ParentFP {
			return nil, fmt.Errorf("snapshot: shard %d is from epoch %d fp %016x, shard 0 from epoch %d fp %016x — mixed splits",
				i, info.Epoch, info.ParentFP, first.Epoch, first.ParentFP)
		}
		// Every shard must serve the same net-2 answers; the parent
		// fingerprint below only vouches for the copy taken from shard 0.
		if !sameNet2Side(sh, ordered[0]) {
			return nil, fmt.Errorf("snapshot: shard %d's replicated net-2 side (matches, net-2 candidate lists) differs from shard 0's", i)
		}
		ranges = append(ranges, info.Range)
		// Shards are per-range slices of globally sorted sections, so
		// concatenation in range order restores the canonical sort.
		net1, _ := byNet(sh.Cands)
		parent.Cands = append(parent.Cands, net1...)
		parent.Pool = append(parent.Pool, sh.Pool...)
		parent.Labels = append(parent.Labels, sh.Labels...)
	}
	if err := checkRanges(ranges, int32(len(parent.Meta.Users1))); err != nil {
		return nil, err
	}
	_, net2 := byNet(ordered[0].Cands)
	parent.Cands = append(parent.Cands, net2...)
	fp, err := parent.Fingerprint() // validates the merged artifact
	if err != nil {
		return nil, err
	}
	if fp != first.ParentFP {
		return nil, fmt.Errorf("snapshot: merged artifact fingerprints %016x, shards claim parent %016x — the shard set is not one lossless split", fp, first.ParentFP)
	}
	return parent, nil
}
