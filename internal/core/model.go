// Package core implements the ActiveIter training loop of Section III-D:
// the hierarchical alternating optimization over the weight vector w,
// the label vector y, and the query set U_q.
//
//	External round:
//	  Internal iteration, until Δy = ‖yₜ − yₜ₋₁‖₁ converges:
//	    (1-1) w = c(I + cXᵀX)⁻¹Xᵀy      — ridge closed form
//	    (1-2) ŷ = Xw; greedy cardinality-constrained selection flips
//	          unlabeled labels (threshold ½, one-to-one constraint)
//	  (2) query batch: the strategy picks k unlabeled links, the oracle
//	      labels them, and they join U_q with fixed labels
//
// Running with a nil strategy (or zero budget) yields Iter-MPMD, the PU
// baseline of reference [21] with meta-diagram features.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/matching"
)

// Config controls training. The zero value gets the paper's defaults.
type Config struct {
	// C weighs the data fit against the ‖w‖² regularizer; default 1.
	C float64
	// Threshold is the selection cutoff in step (1-2); nil means the
	// paper's 0.5 (the value that makes greedy selection maximize the
	// ‖Xw−y‖² objective). An explicit 0 is honored — it is a real
	// boundary, not "use the default".
	Threshold *float64
	// Budget is the total number of oracle queries allowed (the paper's
	// b). Zero disables querying.
	Budget int
	// BatchSize is the per-round query batch (the paper's k); default 5.
	BatchSize int
	// Strategy picks query candidates; nil with Budget 0 is Iter-MPMD.
	// nil with Budget > 0 is an error.
	Strategy active.Strategy
	// ExactSelection replaces the ½-approximation greedy with the
	// Hungarian optimum in step (1-2) — ablation only.
	ExactSelection bool
	// Seed drives strategy randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.C <= 0 {
		c.C = 1
	}
	if c.Threshold == nil {
		half := 0.5
		c.Threshold = &half
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 5
	}
	return c
}

// maxInternalIters caps each internal convergence loop (the paper
// observes convergence within 5). The loop otherwise runs to the exact
// fixpoint: labels are discrete, so Δy is integral and stops at 0.
const maxInternalIters = 20

// Problem is one alignment instance: the candidate pool H with features,
// the labeled positive indices L⁺, and an oracle for queries.
type Problem struct {
	// Links is the candidate pool H (positives ∪ sampled negatives). The
	// Result keeps it to answer LabelOf and WasQueried, so it must not
	// change once Train is called.
	Links []hetnet.Anchor
	// X is the |H|×d feature matrix, row k describing Links[k].
	X *linalg.Dense
	// LabeledPos are indices into Links forming L⁺.
	LabeledPos []int
	// Prelabeled are indices into Links whose labels were fixed by oracle
	// answers obtained before this run — earlier rounds of a multi-round
	// session re-training over a stable pool. They behave exactly like
	// in-run queried labels: fixed for the whole run, occupying their
	// (i, j) slot when positive, excluded from query selection, and
	// reported by WasQueried so evaluation skips them. They do NOT count
	// toward this run's Budget or QueryCount — the oracle was paid in the
	// round that asked.
	Prelabeled []int
	// PrelabeledY carries the fixed label of each Prelabeled index
	// (parallel slices).
	PrelabeledY []float64
	// Oracle answers queries; required when Budget > 0.
	Oracle active.Oracle
}

// QueryRecord is one oracle interaction.
type QueryRecord struct {
	Index int // index into Problem.Links
	Link  hetnet.Anchor
	Label float64
	Round int
}

// RoundTrace records one external round for convergence analysis
// (Figure 3).
type RoundTrace struct {
	// DeltaY holds ‖yₜ−yₜ₋₁‖₁ per internal iteration.
	DeltaY []float64
	// Queried lists this round's oracle interactions.
	Queried []QueryRecord
}

// Result is a trained model plus its audit trail.
type Result struct {
	// W is the learned weight vector.
	W linalg.Vector
	// Y is the final label vector over Links: 1 for L⁺, queried labels
	// for U_q, inferred labels elsewhere.
	Y linalg.Vector
	// Scores is the final raw score vector ŷ = Xw.
	Scores linalg.Vector
	// Queried lists all oracle interactions in order.
	Queried []QueryRecord
	// Rounds traces every external round.
	Rounds []RoundTrace
	// Elapsed is the total training wall time (Figure 4's quantity).
	Elapsed time.Duration
	// InternalIterations counts all internal iterations performed.
	InternalIterations int

	queried []bool // by index into Links: labeled by the oracle, in this run or before it

	// The pool by (i, j), for LabelOf and WasQueried, built on their first
	// call: a caller that reads results by index never pays for it.
	links     []hetnet.Anchor
	indexOnce sync.Once
	linkIndex map[int64]int
}

// ErrNoPositives is returned when L⁺ is empty — the PU setting is
// meaningless without at least one known positive.
var ErrNoPositives = errors.New("core: no labeled positive links")

// Train runs ActiveIter (or Iter-MPMD when no querying is configured).
func Train(p Problem, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := len(p.Links)
	if n == 0 {
		return nil, errors.New("core: empty candidate pool")
	}
	if rows, _ := p.X.Dims(); rows != n {
		return nil, fmt.Errorf("core: feature matrix has %d rows for %d links", rows, n)
	}
	if len(p.LabeledPos) == 0 {
		return nil, ErrNoPositives
	}
	if cfg.Budget > 0 {
		if cfg.Strategy == nil {
			return nil, errors.New("core: budget > 0 requires a query strategy")
		}
		if p.Oracle == nil {
			return nil, errors.New("core: budget > 0 requires an oracle")
		}
	}

	start := time.Now()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Every product of the loop — XᵀX here, Xᵀy per solve, X·w per
	// iteration — walks the design matrix's non-zeros, compressed once.
	xnz := linalg.Compress(p.X)
	ridge, err := linalg.NewRidgeCompressed(xnz, cfg.C)
	if err != nil {
		return nil, err
	}

	// Label state. kind tracks why a label is fixed; y and nextY, the two
	// label vectors the iteration swaps, both carry every fixed label.
	const (
		kindUnlabeled = iota
		kindPositive
		kindQueried
	)
	kind := make([]int, n)
	y, nextY := make(linalg.Vector, n), make(linalg.Vector, n)
	baseOcc := matching.NewOccupied()
	maxI, maxJ := -1, -1
	for _, l := range p.Links {
		maxI, maxJ = max(maxI, l.I), max(maxJ, l.J)
	}
	baseOcc.Reserve(maxI+1, maxJ+1)
	fix := func(idx, why int, label float64) {
		kind[idx] = why
		y[idx], nextY[idx] = label, label
		if label == 1 {
			baseOcc.Take(p.Links[idx].I, p.Links[idx].J)
		}
	}
	for _, idx := range p.LabeledPos {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("core: labeled positive index %d out of range [0,%d)", idx, n)
		}
		fix(idx, kindPositive, 1)
	}

	res := &Result{queried: make([]bool, n), links: p.Links}

	// Prelabeled links enter in the same state an in-run query would have
	// left them: fixed label, occupied slot when positive, flagged as
	// queried. Applied after L⁺ so a conflicting double-listing (caller
	// bug) surfaces as an error rather than silently preferring one side.
	if len(p.Prelabeled) != len(p.PrelabeledY) {
		return nil, fmt.Errorf("core: %d prelabeled indices for %d labels", len(p.Prelabeled), len(p.PrelabeledY))
	}
	for k, idx := range p.Prelabeled {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("core: prelabeled index %d out of range [0,%d)", idx, n)
		}
		if kind[idx] != kindUnlabeled {
			return nil, fmt.Errorf("core: prelabeled index %d already labeled (listed twice, or also in LabeledPos)", idx)
		}
		fix(idx, kindQueried, p.PrelabeledY[k])
		res.queried[idx] = true
	}

	// The very first solve fits w on the fixed-label rows only (L⁺, and
	// later U_q). Solving over all of H with unlabeled y initialized to 0
	// would shrink every score below the ½ selection threshold and the
	// alternating iteration could never lift off; bootstrapping from the
	// discriminative term alone is the natural reading of the paper's
	// initialization (train on L⁺, then infer U). unlabeled lists the
	// other rows, in pool order; a query round removes what it labels.
	var fixed []int
	unlabeled := make([]int, 0, n)
	for idx := range kind {
		if kind[idx] == kindUnlabeled {
			unlabeled = append(unlabeled, idx)
		} else {
			fixed = append(fixed, idx)
		}
	}
	_, d := p.X.Dims()
	sub := linalg.NewDense(len(fixed), d)
	subY := make(linalg.Vector, len(fixed))
	for r, idx := range fixed {
		copy(sub.RowView(r), p.X.RowView(idx))
		subY[r] = y[idx]
	}
	w, err := linalg.RidgeSolve(sub, subY, cfg.C)
	if err != nil {
		return nil, err
	}
	firstSolve := true

	// Scratch buffers reused across every internal iteration and query
	// round: the score vector, the selected links, the picked positions
	// and one slot per row block. The loop runs O(folds × rounds ×
	// iterations) times per experiment cell, so per-iteration allocation
	// here was a dominant GC cost.
	scores := make(linalg.Vector, n)
	var selected []matching.Candidate
	var vacated []int // a query round's picked positions, sorted

	// Step (1-2) runs over fixed row blocks, each on whichever of the
	// caller and the helper claims it: the block scores its rows, keeps
	// its unlabeled selectable ones in pool order and — for Greedy —
	// sorts them. Greedy's order is total, so merging the sorted blocks
	// walks what one sort of the pool would; Exact reads the blocks
	// concatenated, which is the unlabeled pool minus candidates it never
	// reads.
	threshold := *cfg.Threshold
	blocks := make([][]matching.Candidate, (n+blockRows-1)/blockRows)
	scoreBlock := func(b int) {
		lo, hi := b*blockRows, min(n, (b+1)*blockRows)
		xnz.MulVecRowsInto(scores, w, lo, hi)
		sel := blocks[b][:0]
		for idx := lo; idx < hi; idx++ {
			if kind[idx] == kindUnlabeled && matching.Selectable(scores[idx], threshold) {
				sel = append(sel, matching.Candidate{
					I: p.Links[idx].I, J: p.Links[idx].J,
					Score: scores[idx], Payload: idx,
				})
			}
		}
		if !cfg.ExactSelection {
			slices.SortFunc(sel, matching.Compare)
		}
		blocks[b] = sel
	}
	h := startHelper(len(blocks))
	defer h.stop()

	// internalConverge runs step (1) to a label fixpoint.
	internalConverge := func(trace *RoundTrace) {
		for it := 0; it < maxInternalIters; it++ {
			res.InternalIterations++
			// (1-1) ridge solve.
			if firstSolve {
				firstSolve = false
			} else {
				w = ridge.Solve(p.X, y)
			}
			// (1-2) score, then select over the unlabeled links.
			h.do(len(blocks), scoreBlock)
			occ := baseOcc.Clone()
			if cfg.ExactSelection {
				selected = selected[:0]
				for _, sel := range blocks {
					selected = append(selected, sel...)
				}
				selected = matching.Exact(selected, threshold, occ)
			} else {
				selected = matching.GreedyMerge(selected[:0], blocks, occ)
			}
			for _, idx := range unlabeled {
				nextY[idx] = 0
			}
			for _, c := range selected {
				nextY[c.Payload] = 1
			}
			var delta float64
			for idx, next := range nextY {
				d := next - y[idx]
				if d < 0 {
					d = -d
				}
				delta += d
			}
			y, nextY = nextY, y
			trace.DeltaY = append(trace.DeltaY, delta)
			if delta == 0 {
				break
			}
		}
	}

	remaining := cfg.Budget
	round := 0
	for {
		trace := RoundTrace{}
		internalConverge(&trace)
		if remaining <= 0 || cfg.Strategy == nil {
			res.Rounds = append(res.Rounds, trace)
			break
		}
		// (2) query batch over the unlabeled links, which the strategy
		// reads in place: the pool, its scores and labels, and the list.
		k := cfg.BatchSize
		if k > remaining {
			k = remaining
		}
		picks := cfg.Strategy.Select(&active.State{
			Links: p.Links, Scores: scores, Labels: y, Unlabeled: unlabeled,
			Threshold: cfg.Threshold,
		}, k, rng)
		for _, pi := range picks {
			idx := unlabeled[pi]
			label := p.Oracle.Label(p.Links[idx])
			fix(idx, kindQueried, label)
			rec := QueryRecord{Index: idx, Link: p.Links[idx], Label: label, Round: round}
			trace.Queried = append(trace.Queried, rec)
			res.Queried = append(res.Queried, rec)
			res.queried[idx] = true
			remaining--
		}
		// Close the gaps the picks left, in one pass from the first: each
		// run of links between two picked positions (the last run ends at
		// the list's end, appended as a sentinel) moves down once.
		vacated = append(vacated[:0], picks...)
		slices.Sort(vacated)
		vacated = append(slices.Compact(vacated), len(unlabeled))
		to := vacated[0]
		for i, pos := range vacated[:len(vacated)-1] {
			to += copy(unlabeled[to:], unlabeled[pos+1:vacated[i+1]])
		}
		unlabeled = unlabeled[:to]
		res.Rounds = append(res.Rounds, trace)
		round++
		if len(picks) == 0 {
			break // nothing left to query
		}
	}

	res.W = w
	res.Y = y
	res.Scores = scores
	res.Elapsed = time.Since(start)
	return res, nil
}

// indexOf returns the pool index of link (i, j) — the last one, if the
// pool lists the link twice — building the index on first use.
func (r *Result) indexOf(i, j int) (int, bool) {
	r.indexOnce.Do(func() {
		r.linkIndex = make(map[int64]int, len(r.links))
		for idx, l := range r.links {
			r.linkIndex[hetnet.Key(l.I, l.J)] = idx
		}
	})
	idx, ok := r.linkIndex[hetnet.Key(i, j)]
	return idx, ok
}

// LabelOf returns the final label of link (i, j) and whether the link
// was part of the candidate pool.
func (r *Result) LabelOf(i, j int) (float64, bool) {
	idx, ok := r.indexOf(i, j)
	if !ok {
		return 0, false
	}
	return r.Y[idx], true
}

// WasQueried reports whether link (i, j) was labeled by the oracle (such
// links are excluded from evaluation for fairness, per Section IV-B-3).
func (r *Result) WasQueried(i, j int) bool {
	idx, ok := r.indexOf(i, j)
	return ok && r.queried[idx]
}

// QueriedAt is WasQueried for a caller that holds the link's index into
// the pool instead of its endpoints. It panics when idx is out of range.
func (r *Result) QueriedAt(idx int) bool { return r.queried[idx] }

// QueryCount returns the number of oracle queries spent.
func (r *Result) QueryCount() int { return len(r.Queried) }

// FirstRoundDeltas returns the Δy sequence of the first external round,
// the series Figure 3 plots.
func (r *Result) FirstRoundDeltas() []float64 {
	if len(r.Rounds) == 0 {
		return nil
	}
	return r.Rounds[0].DeltaY
}
