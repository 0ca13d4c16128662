// Package active implements the label-query side of ActiveIter: the
// oracle abstraction and the query strategies of Section III-C-3 /
// III-D External Iteration Step (2).
//
// The paper's strategy targets mis-classified false negatives: links
// currently labeled 0 that (a) lost the greedy selection to a
// conflicting positive by a whisker (ŷ_l' ≈ ŷ_l) and (b) block — via
// their other endpoint — a much weaker selected positive (ŷ_l ≫ ŷ_l” >
// 0). Querying such a link pays twice: its own label is corrected, and a
// positive answer evicts the weak conflicting positive l”.
package active

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/matching"
)

// Oracle answers ground-truth label queries for candidate anchor links.
type Oracle interface {
	// Label returns 1 when the link is a true anchor, 0 otherwise.
	Label(a hetnet.Anchor) float64
}

// TruthOracle answers from a ground-truth anchor set — the experimental
// stand-in for the human labeler.
type TruthOracle struct {
	set map[int64]bool
}

// NewTruthOracle builds an oracle over the pair's full anchor set.
func NewTruthOracle(pair *hetnet.AlignedPair) *TruthOracle {
	return &TruthOracle{set: pair.AnchorSet()}
}

// Label implements Oracle.
func (o *TruthOracle) Label(a hetnet.Anchor) float64 {
	if o.set[hetnet.Key(a.I, a.J)] {
		return 1
	}
	return 0
}

// CountingOracle wraps an oracle and counts queries, for budget audits.
// Safe for concurrent use: the partitioned and distributed paths share
// one oracle across per-shard training pipelines.
type CountingOracle struct {
	Inner   Oracle
	queries atomic.Int64
}

// Label implements Oracle.
func (o *CountingOracle) Label(a hetnet.Anchor) float64 {
	o.queries.Add(1)
	return o.Inner.Label(a)
}

// Queries returns the number of Label calls so far.
func (o *CountingOracle) Queries() int {
	return int(o.queries.Load())
}

// State is the view of the training loop's pool a strategy chooses
// queries from. Links, Scores and Labels are the loop's live pool-wide
// buffers — every candidate link, its current score ŷ and its label y —
// read-only to a strategy and valid only during the Select call.
// Unlabeled lists the pool indices of the links U \ U_q a strategy may
// pick, in pool order; a State without it has nothing to pick.
type State struct {
	Links     []hetnet.Anchor
	Scores    []float64
	Labels    []float64
	Unlabeled []int
	// Threshold is the decision boundary the training loop selects
	// against; nil when the caller has no boundary (strategies fall back
	// to the paper's ½). An explicit 0 is a real boundary, not "unset".
	Threshold *float64
}

// Strategy selects up to k of the unlabeled links to query, each as its
// position in State.Unlabeled. Implementations must not mutate the
// state, nor keep its slices past the call: they are the training
// loop's own buffers.
type Strategy interface {
	Name() string
	Select(st *State, k int, rng *rand.Rand) []int
}

// Conflict is the paper's query strategy. With U⁺/U⁻ the links inferred
// positive/negative, the candidate set is
//
//	C = { l ∈ U⁻ : ∃ l′,l″ ∈ U⁺ conflicting with l,
//	      |ŷ_l′ − ŷ_l| ≤ CloseTol  ∧  ŷ_l − ŷ_l″ ≥ Margin  ∧  ŷ_l″ > 0 }
//
// sorted by ŷ_l − ŷ_l″ descending; the top k are queried. When C has
// fewer than k members the remaining budget falls back to the
// highest-scored negatives (the "large positive score" false-negative
// intuition without the conflict requirement), so the configured budget
// is always spent.
type Conflict struct {
	// CloseTol is the "∼" threshold; the paper uses 0.05.
	CloseTol float64
	// Margin is the "≫" threshold; defaults to CloseTol when zero.
	Margin float64
}

// Name implements Strategy.
func (c Conflict) Name() string { return "conflict" }

// Select implements Strategy.
func (c Conflict) Select(st *State, k int, rng *rand.Rand) []int {
	closeTol := c.CloseTol
	if closeTol <= 0 {
		closeTol = 0.05
	}
	margin := c.Margin
	if margin <= 0 {
		margin = closeTol
	}
	// A negative l qualifies only against a weak blocker l″ with
	// 0 < ŷ_l″ and ŷ_l − ŷ_l″ ≥ Margin. Float subtraction is monotone in
	// the subtrahend, so ŷ_l − ŷ_l″ ≤ ŷ_l − ŷ_min for the weakest inferred
	// positive ŷ_min scoring above 0: a negative with ŷ_l − ŷ_min short of
	// Margin (or NaN) cannot qualify. With no such positive ŷ_min is +Inf
	// and nothing can.
	floor := math.Inf(1)
	for _, idx := range st.Unlabeled {
		if y := st.Scores[idx]; st.Labels[idx] == 1 && y > 0 && y < floor {
			floor = y
		}
	}
	// negatives keeps the k best-scored negatives seen, the fill's pool:
	// at most len(out) of them are conflict picks, so the rest cover
	// whatever the conflict rule leaves of the budget. reach collects the
	// positions of the negatives that clear the bound.
	sc := conflictScratch.Get().(*selectScratch)
	defer conflictScratch.Put(sc)
	var negatives worstFirst
	reach := sc.reach[:0]
	for pos, idx := range st.Unlabeled {
		if st.Labels[idx] != 0 {
			continue
		}
		yl := st.Scores[idx]
		// Positions only grow, so a number not above the worst kept
		// number ranks after it; anything else goes to ranked.below.
		if len(negatives) < k || len(negatives) > 0 && !(yl <= negatives[0].key) {
			negatives.offer(ranked{pos: pos, key: yl}, k)
		}
		if yl-floor >= margin {
			reach = append(reach, pos)
		}
	}
	sc.reach = reach
	var cands []conflictCand
	if len(reach) == 0 {
		mScansSkipped.Add(1)
	} else {
		mScansBuilt.Add(1)
		cands = admit(st, reach, &sc.tables, closeTol, margin)
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].gain != cands[b].gain {
			return cands[a].gain > cands[b].gain
		}
		return cands[a].pos < cands[b].pos
	})
	out := make([]int, 0, k)
	for _, c := range cands {
		if len(out) == k {
			break
		}
		out = append(out, c.pos)
	}
	picked := len(out)
	if picked < k {
		// Fill with the highest-scored negatives not picked already.
		for _, pos := range negatives.drain() {
			if len(out) == k {
				break
			}
			if !slices.Contains(out[:picked], pos) {
				out = append(out, pos)
			}
		}
	}
	mPicksConflict.Add(int64(picked))
	mPicksFill.Add(int64(len(out) - picked))
	return out
}

// conflictCand is a negative the conflict rule admitted: its position in
// State.Unlabeled and its gain ŷ_l − ŷ_l″, the sort key.
type conflictCand struct {
	pos  int
	gain float64
}

// admit applies the conflict rule to the negatives at the given
// positions of st.Unlabeled and returns those it admits, in the order
// given. It fills the two endpoint tables, empty on entry, and leaves
// them empty again.
func admit(st *State, positions []int, tables *[2]matching.EndpointTable[int], closeTol, margin float64) []conflictCand {
	// Inferred positives form a partial matching: at most one per
	// endpoint. The two tables hold 1 + the pool index of the positive at
	// an endpoint, 0 for none.
	posAtI, posAtJ := &tables[0], &tables[1]
	defer func() {
		posAtI.Clear()
		posAtJ.Clear()
	}()
	for _, idx := range st.Unlabeled {
		if st.Labels[idx] == 1 {
			posAtI.Set(st.Links[idx].I, idx+1)
			posAtJ.Set(st.Links[idx].J, idx+1)
		}
	}
	var cands []conflictCand
	for _, pos := range positions {
		idx := st.Unlabeled[pos]
		yl := st.Scores[idx]
		// Both a near-tie blocker l′ and a weak blocker l″ are needed: one
		// positive at each endpoint, and not the same one.
		l := st.Links[idx]
		atI := posAtI.Get(l.I) - 1
		if atI < 0 {
			continue
		}
		atJ := posAtJ.Get(l.J) - 1
		if atJ < 0 || atI == atJ {
			continue
		}
		bestGain, found := 0.0, false
		for _, pair := range [2][2]int{{atI, atJ}, {atJ, atI}} {
			yp, yw := st.Scores[pair[0]], st.Scores[pair[1]]
			if yw <= 0 {
				continue
			}
			if absF(yp-yl) <= closeTol && yl-yw >= margin {
				if g := yl - yw; !found || g > bestGain {
					bestGain, found = g, true
				}
			}
		}
		if found {
			cands = append(cands, conflictCand{pos: pos, gain: bestGain})
		}
	}
	return cands
}

// selectScratch is the storage Conflict.Select keeps between calls, so a
// round reuses what an earlier one grew: the positions that cleared the
// bound, and the two endpoint tables, cleared.
type selectScratch struct {
	reach  []int
	tables [2]matching.EndpointTable[int]
}

var conflictScratch = sync.Pool{New: func() any { return new(selectScratch) }}

// ranked is one link under selection: its position in State.Unlabeled
// and the key it is ranked by.
type ranked struct {
	pos int
	key float64
}

// below reports whether a ranks after b: the larger key first, ties to
// the smaller position, and a NaN key after every number — a strict total
// order whatever the scores are.
func (a ranked) below(b ranked) bool {
	aNaN, bNaN := a.key != a.key, b.key != b.key
	switch {
	case aNaN != bNaN:
		return aNaN
	case !aNaN && a.key != b.key:
		return a.key < b.key
	default:
		return a.pos > b.pos
	}
}

// worstFirst is a container/heap of ranked links whose root is the one
// ranking last: the one bounded selection the ranking strategies share.
// Offering it every link keeps the k best under ranked.below, so a round
// reads the pool once in O(n·log k) and orders only what it returns; a
// key may be NaN or ±Inf.
type worstFirst []ranked

func (h worstFirst) Len() int           { return len(h) }
func (h worstFirst) Less(i, j int) bool { return h[i].below(h[j]) }
func (h worstFirst) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *worstFirst) Push(x any)        { *h = append(*h, x.(ranked)) }
func (h *worstFirst) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// offer keeps e if it ranks among the k best offered so far.
func (h *worstFirst) offer(e ranked, k int) {
	switch {
	case len(*h) < k:
		heap.Push(h, e)
	case len(*h) > 0 && (*h)[0].below(e):
		(*h)[0] = e
		heap.Fix(h, 0)
	}
}

// drain empties h and returns the positions it kept, best first.
func (h *worstFirst) drain() []int {
	// Popping yields the worst kept first: fill the answer back to front.
	out := make([]int, len(*h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(ranked).pos
	}
	return out
}

// Random queries uniformly among unqueried links — the ActiveIter-Rand
// baseline.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Select implements Strategy.
func (Random) Select(st *State, k int, rng *rand.Rand) []int {
	idxs := rng.Perm(len(st.Unlabeled))
	if k > len(idxs) {
		k = len(idxs)
	}
	out := make([]int, k)
	copy(out, idxs[:k])
	return out
}

// Uncertainty queries the links whose scores are closest to the decision
// threshold — the classic active-learning baseline, included as an
// ablation (it ignores the one-to-one constraint entirely).
type Uncertainty struct {
	// Threshold overrides the decision boundary when non-zero. Leave it
	// zero to inherit the training loop's configured threshold from
	// State.Threshold (the usual case); the paper's ½ is the last-resort
	// default when neither is present.
	Threshold float64
}

// Name implements Strategy.
func (Uncertainty) Name() string { return "uncertainty" }

// Select implements Strategy.
func (u Uncertainty) Select(st *State, k int, rng *rand.Rand) []int {
	thr := 0.5
	if st.Threshold != nil {
		thr = *st.Threshold
	}
	if u.Threshold != 0 {
		thr = u.Threshold
	}
	// Closest first: rank by negated distance to the threshold.
	var h worstFirst
	for pos, idx := range st.Unlabeled {
		h.offer(ranked{pos: pos, key: -absF(st.Scores[idx] - thr)}, k)
	}
	return h.drain()
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
