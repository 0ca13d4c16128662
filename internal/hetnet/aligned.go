package hetnet

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/sparse"
)

// Anchor is a ground-truth correspondence between user index I in the
// first network and user index J in the second.
type Anchor struct {
	I, J int
}

// AlignedPair is the multiple-aligned-social-networks container from
// Definition 2 for the two-network case studied in the paper:
// G = ((G¹, G²), A^(1,2)).
type AlignedPair struct {
	G1, G2 *Network
	// AnchorType is the node type the anchors join; always User in the
	// paper's setting but kept explicit so the machinery generalizes to,
	// e.g., aligned PPI networks joining proteins.
	AnchorType NodeType
	Anchors    []Anchor
}

// NewAlignedPair wraps two networks with an empty anchor set over User
// nodes.
func NewAlignedPair(g1, g2 *Network) *AlignedPair {
	return &AlignedPair{G1: g1, G2: g2, AnchorType: User}
}

// AddAnchor appends a ground-truth anchor link (i ↔ j). Indices are
// validated against the networks' user counts.
func (p *AlignedPair) AddAnchor(i, j int) error {
	if i < 0 || i >= p.G1.NodeCount(p.AnchorType) {
		return fmt.Errorf("hetnet: anchor source %d out of range [0,%d)", i, p.G1.NodeCount(p.AnchorType))
	}
	if j < 0 || j >= p.G2.NodeCount(p.AnchorType) {
		return fmt.Errorf("hetnet: anchor target %d out of range [0,%d)", j, p.G2.NodeCount(p.AnchorType))
	}
	p.Anchors = append(p.Anchors, Anchor{I: i, J: j})
	return nil
}

// AnchorMatrix returns the |U¹|×|U²| 0/1 matrix of the given anchors.
// Passing nil uses the pair's full anchor set. ActiveIter calls this with
// only the training-fold positives: the anchor edges that meta paths
// P1–P4 may traverse are the *known* anchors, never test labels.
func (p *AlignedPair) AnchorMatrix(anchors []Anchor) *sparse.CSR {
	if anchors == nil {
		anchors = p.Anchors
	}
	return AnchorMatrix(p.G1.NodeCount(p.AnchorType), p.G2.NodeCount(p.AnchorType), anchors)
}

// AnchorMatrix returns the n1×n2 0/1 matrix of the given anchors, for a
// caller that knows the two anchor-type node counts but holds no pair.
func AnchorMatrix(n1, n2 int, anchors []Anchor) *sparse.CSR {
	b := sparse.NewBuilder(n1, n2)
	for _, a := range anchors {
		b.Add(a.I, a.J, 1)
	}
	return b.Build().Binarize()
}

// Validate checks that both networks validate and that the anchor set
// satisfies the one-to-one cardinality constraint (no user participates
// in two anchors) with in-range indices.
func (p *AlignedPair) Validate() error {
	if err := p.G1.Validate(); err != nil {
		return fmt.Errorf("hetnet: aligned pair network 1: %w", err)
	}
	if err := p.G2.Validate(); err != nil {
		return fmt.Errorf("hetnet: aligned pair network 2: %w", err)
	}
	n1, n2 := p.G1.NodeCount(p.AnchorType), p.G2.NodeCount(p.AnchorType)
	seenI := make(map[int]int, len(p.Anchors))
	seenJ := make(map[int]int, len(p.Anchors))
	for k, a := range p.Anchors {
		if a.I < 0 || a.I >= n1 {
			return fmt.Errorf("hetnet: anchor %d source %d out of range [0,%d)", k, a.I, n1)
		}
		if a.J < 0 || a.J >= n2 {
			return fmt.Errorf("hetnet: anchor %d target %d out of range [0,%d)", k, a.J, n2)
		}
		if prev, ok := seenI[a.I]; ok {
			return fmt.Errorf("hetnet: one-to-one violation: anchors %d and %d share source user %d", prev, k, a.I)
		}
		if prev, ok := seenJ[a.J]; ok {
			return fmt.Errorf("hetnet: one-to-one violation: anchors %d and %d share target user %d", prev, k, a.J)
		}
		seenI[a.I] = k
		seenJ[a.J] = k
	}
	return nil
}

// HasAnchor reports whether (i, j) is a ground-truth anchor. The lookup
// set is built on first use and invalidated by AddAnchor; callers doing
// bulk membership tests should use AnchorSet instead.
func (p *AlignedPair) HasAnchor(i, j int) bool {
	for _, a := range p.Anchors {
		if a.I == i && a.J == j {
			return true
		}
	}
	return false
}

// AnchorSet returns a membership set keyed by packed (i, j) pairs for
// O(1) lookups. The key layout is Key(i, j).
func (p *AlignedPair) AnchorSet() map[int64]bool {
	s := make(map[int64]bool, len(p.Anchors))
	for _, a := range p.Anchors {
		s[Key(a.I, a.J)] = true
	}
	return s
}

// Key packs a user-pair (i, j) into a single comparable int64. Both
// indices must be non-negative and below 2³¹.
func Key(i, j int) int64 { return int64(i)<<31 | int64(j) }

// UnpackKey reverses Key.
func UnpackKey(k int64) (i, j int) { return int(k >> 31), int(k & ((1 << 31) - 1)) }
