package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/matching"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
)

// referenceRidge is linalg.Ridge as it was over the dense matrix: the
// Gram matrix, Xᵀy and (in referenceTrain) X·w all walk every cell.
type referenceRidge struct{ chol *linalg.Cholesky }

func newReferenceRidge(x *linalg.Dense, c float64) (*referenceRidge, error) {
	if c <= 0 {
		return nil, fmt.Errorf("linalg: ridge weight c must be positive, got %v", c)
	}
	g := x.Gram()
	for i := 0; i < g.Rows(); i++ {
		g.Inc(i, i, 1/c)
	}
	chol, err := linalg.NewCholesky(g)
	if err != nil {
		return nil, fmt.Errorf("linalg: ridge normal equations not SPD: %w", err)
	}
	return &referenceRidge{chol: chol}, nil
}

func (r *referenceRidge) Solve(x *linalg.Dense, y linalg.Vector) linalg.Vector {
	return r.chol.SolveVec(x.TMulVec(y))
}

// referenceTrain is Train as it was while the loop read the dense
// design matrix, rescanned kind[] for the unlabeled links in every pass
// and cloned the occupied endpoints per internal iteration. It returns
// the result and the indices it marked queried (prelabeled included).
func referenceTrain(p Problem, cfg Config) (*Result, map[int]bool, error) {
	cfg = cfg.withDefaults()
	n := len(p.Links)
	if n == 0 {
		return nil, nil, errors.New("core: empty candidate pool")
	}
	if rows, _ := p.X.Dims(); rows != n {
		return nil, nil, fmt.Errorf("core: feature matrix has %d rows for %d links", rows, n)
	}
	if len(p.LabeledPos) == 0 {
		return nil, nil, ErrNoPositives
	}
	if cfg.Budget > 0 {
		if cfg.Strategy == nil {
			return nil, nil, errors.New("core: budget > 0 requires a query strategy")
		}
		if p.Oracle == nil {
			return nil, nil, errors.New("core: budget > 0 requires an oracle")
		}
	}

	start := time.Now()
	rng := rand.New(rand.NewSource(cfg.Seed))

	ridge, err := newReferenceRidge(p.X, cfg.C)
	if err != nil {
		return nil, nil, err
	}

	// Label state. kind tracks why a label is fixed.
	const (
		kindUnlabeled = iota
		kindPositive
		kindQueried
	)
	kind := make([]int, n)
	y := make(linalg.Vector, n)
	baseOcc := matching.NewOccupied()
	for _, idx := range p.LabeledPos {
		if idx < 0 || idx >= n {
			return nil, nil, fmt.Errorf("core: labeled positive index %d out of range [0,%d)", idx, n)
		}
		kind[idx] = kindPositive
		y[idx] = 1
		baseOcc.Take(p.Links[idx].I, p.Links[idx].J)
	}

	res := &Result{}
	queriedSet := make(map[int]bool)

	// Prelabeled links enter in the same state an in-run query would have
	// left them: fixed label, occupied slot when positive, flagged as
	// queried. Applied after L⁺ so a conflicting double-listing (caller
	// bug) surfaces as an error rather than silently preferring one side.
	if len(p.Prelabeled) != len(p.PrelabeledY) {
		return nil, nil, fmt.Errorf("core: %d prelabeled indices for %d labels", len(p.Prelabeled), len(p.PrelabeledY))
	}
	for k, idx := range p.Prelabeled {
		if idx < 0 || idx >= n {
			return nil, nil, fmt.Errorf("core: prelabeled index %d out of range [0,%d)", idx, n)
		}
		if kind[idx] != kindUnlabeled {
			return nil, nil, fmt.Errorf("core: prelabeled index %d already labeled (listed twice, or also in LabeledPos)", idx)
		}
		kind[idx] = kindQueried
		y[idx] = p.PrelabeledY[k]
		if y[idx] == 1 {
			baseOcc.Take(p.Links[idx].I, p.Links[idx].J)
		}
		queriedSet[idx] = true
	}

	var scores linalg.Vector
	var w linalg.Vector

	// The very first solve fits w on the fixed-label rows only (L⁺, and
	// later U_q). Solving over all of H with unlabeled y initialized to 0
	// would shrink every score below the ½ selection threshold and the
	// alternating iteration could never lift off; bootstrapping from the
	// discriminative term alone is the natural reading of the paper's
	// initialization (train on L⁺, then infer U).
	firstSolve := true
	solveFixedOnly := func() (linalg.Vector, error) {
		var rows []int
		for idx := 0; idx < n; idx++ {
			if kind[idx] != kindUnlabeled {
				rows = append(rows, idx)
			}
		}
		_, d := p.X.Dims()
		sub := linalg.NewDense(len(rows), d)
		subY := make(linalg.Vector, len(rows))
		for r, idx := range rows {
			copy(sub.RowView(r), p.X.RowView(idx))
			subY[r] = y[idx]
		}
		r, err := newReferenceRidge(sub, cfg.C)
		if err != nil {
			return nil, err
		}
		return r.Solve(sub, subY), nil
	}

	// Scratch buffers reused across every internal iteration and query
	// round: the candidate list, the score vector, the next-label vector
	// and the strategy's view of the unlabeled links (grown by the first
	// query round, so a run that never queries never pays for it). The
	// candidate loop runs O(folds × rounds × iterations) times per
	// experiment cell, so per-iteration allocation here was a dominant
	// GC cost.
	scores = make(linalg.Vector, n)
	nextY := make(linalg.Vector, n)
	cands := make([]matching.Candidate, 0, n)
	var stLinks []hetnet.Anchor
	var stScores, stLabels []float64
	var stIdx []int

	// internalConverge runs step (1) to a label fixpoint.
	internalConverge := func(trace *RoundTrace) error {
		for it := 0; it < cfg.MaxInternalIters; it++ {
			res.InternalIterations++
			// (1-1) ridge solve.
			if firstSolve {
				var err error
				w, err = solveFixedOnly()
				if err != nil {
					return err
				}
				firstSolve = false
			} else {
				w = ridge.Solve(p.X, y)
			}
			// (1-2) greedy selection over unlabeled links.
			p.X.MulVecInto(scores, w)
			cands = cands[:0]
			for idx := 0; idx < n; idx++ {
				if kind[idx] != kindUnlabeled {
					continue
				}
				cands = append(cands, matching.Candidate{
					I: p.Links[idx].I, J: p.Links[idx].J,
					Score: scores[idx], Payload: idx,
				})
			}
			occ := baseOcc.Clone()
			var selected []matching.Candidate
			if cfg.ExactSelection {
				selected = matching.Exact(cands, *cfg.Threshold, occ)
			} else {
				selected = matching.Greedy(cands, *cfg.Threshold, occ)
			}
			for idx := 0; idx < n; idx++ {
				if kind[idx] == kindUnlabeled {
					nextY[idx] = 0
				} else {
					nextY[idx] = y[idx]
				}
			}
			for _, c := range selected {
				nextY[c.Payload] = 1
			}
			var delta float64
			for idx := 0; idx < n; idx++ {
				d := nextY[idx] - y[idx]
				if d < 0 {
					d = -d
				}
				delta += d
			}
			y, nextY = nextY, y
			trace.DeltaY = append(trace.DeltaY, delta)
			if delta <= cfg.ConvergeTol {
				break
			}
		}
		return nil
	}

	remaining := cfg.Budget
	round := 0
	for {
		trace := RoundTrace{}
		if err := internalConverge(&trace); err != nil {
			return nil, nil, err
		}
		if remaining <= 0 || cfg.Strategy == nil {
			res.Rounds = append(res.Rounds, trace)
			break
		}
		// (2) query batch over the unlabeled links.
		stLinks, stScores, stLabels, stIdx = stLinks[:0], stScores[:0], stLabels[:0], stIdx[:0]
		for idx := 0; idx < n; idx++ {
			if kind[idx] != kindUnlabeled {
				continue
			}
			stLinks = append(stLinks, p.Links[idx])
			stScores = append(stScores, scores[idx])
			stLabels = append(stLabels, y[idx])
			stIdx = append(stIdx, idx)
		}
		k := cfg.BatchSize
		if k > remaining {
			k = remaining
		}
		picks := cfg.Strategy.Select(&active.State{
			Links: stLinks, Scores: stScores, Labels: stLabels,
			Threshold: cfg.Threshold,
		}, k, rng)
		for _, pi := range picks {
			idx := stIdx[pi]
			label := p.Oracle.Label(p.Links[idx])
			kind[idx] = kindQueried
			y[idx] = label
			if label == 1 {
				baseOcc.Take(p.Links[idx].I, p.Links[idx].J)
			}
			rec := QueryRecord{Index: idx, Link: p.Links[idx], Label: label, Round: round}
			trace.Queried = append(trace.Queried, rec)
			res.Queried = append(res.Queried, rec)
			queriedSet[idx] = true
			remaining--
		}
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
	return res, queriedSet, nil
}

// foldProblem builds the paper's protocol over a generated pair: the
// first tenth of the anchors is L⁺, the pool is every anchor plus ten
// sampled negatives each, the features are the standard library's with
// a bias column if asked.
func foldProblem(t *testing.T, cfg datagen.Config, bias bool) (Problem, active.Oracle) {
	t.Helper()
	pair, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nTrain := len(pair.Anchors) / 10
	counter, err := metadiag.NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	counter.SetAnchors(pair.Anchors[:nTrain])
	neg, err := eval.SampleNegatives(pair, 10*len(pair.Anchors), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	links := append(append([]hetnet.Anchor{}, pair.Anchors...), neg...)
	x, err := metadiag.NewExtractor(counter, schema.StandardLibrary().All(), bias).FeatureMatrix(links)
	if err != nil {
		t.Fatal(err)
	}
	labeled := make([]int, nTrain)
	for i := range labeled {
		labeled[i] = i
	}
	return Problem{Links: links, X: x, LabeledPos: labeled}, active.NewTruthOracle(pair)
}

func sameBits(a, b linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameRecord compares two query records, a NaN label equal to itself.
func sameRecord(a, b QueryRecord) bool {
	return a.Index == b.Index && a.Link == b.Link && a.Round == b.Round && math.Float64bits(a.Label) == math.Float64bits(b.Label)
}

// requireSameRun compares everything a run reports except its wall
// time: weights, labels and scores bit for bit, the queries in order,
// every round's Δy trace, and the queried flags by index and by link.
func requireSameRun(t *testing.T, p Problem, got, want *Result, wantQueried map[int]bool) {
	t.Helper()
	if !sameBits(got.W, want.W) {
		t.Fatalf("W differs:\n got  %v\n want %v", got.W, want.W)
	}
	if !sameBits(got.Y, want.Y) {
		t.Fatal("Y differs")
	}
	if !sameBits(got.Scores, want.Scores) {
		t.Fatal("Scores differ")
	}
	if got.InternalIterations != want.InternalIterations {
		t.Fatalf("%d internal iterations, want %d", got.InternalIterations, want.InternalIterations)
	}
	if len(got.Queried) != len(want.Queried) || len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("%d queries in %d rounds, want %d in %d", len(got.Queried), len(got.Rounds), len(want.Queried), len(want.Rounds))
	}
	for k := range want.Queried {
		if !sameRecord(got.Queried[k], want.Queried[k]) {
			t.Fatalf("query %d is %+v, want %+v", k, got.Queried[k], want.Queried[k])
		}
	}
	for r := range want.Rounds {
		if !sameBits(got.Rounds[r].DeltaY, want.Rounds[r].DeltaY) {
			t.Fatalf("round %d Δy %v, want %v", r, got.Rounds[r].DeltaY, want.Rounds[r].DeltaY)
		}
		if len(got.Rounds[r].Queried) != len(want.Rounds[r].Queried) {
			t.Fatalf("round %d asked %d queries, want %d", r, len(got.Rounds[r].Queried), len(want.Rounds[r].Queried))
		}
		for k, q := range want.Rounds[r].Queried {
			if !sameRecord(got.Rounds[r].Queried[k], q) {
				t.Fatalf("round %d query %d is %+v, want %+v", r, k, got.Rounds[r].Queried[k], q)
			}
		}
	}
	for idx, l := range p.Links {
		if got.QueriedAt(idx) != wantQueried[idx] || got.WasQueried(l.I, l.J) != wantQueried[idx] {
			t.Fatalf("link %d: QueriedAt %v, WasQueried %v, want %v", idx, got.QueriedAt(idx), got.WasQueried(l.I, l.J), wantQueried[idx])
		}
	}
}

// TestTrainMatchesReferenceLoop runs Train and the loop it replaced on
// the same problems — two presets × three strategies × no budget and
// 100 queries × with and without labels fixed by an earlier round ×
// greedy and exact selection — and requires the same run.
func TestTrainMatchesReferenceLoop(t *testing.T) {
	strategies := []active.Strategy{active.Conflict{CloseTol: 0.05}, active.Uncertainty{}, active.Random{}}
	for _, preset := range []struct {
		name string
		cfg  datagen.Config
	}{{"tiny", datagen.Tiny()}, {"small", datagen.Small()}} {
		p, oracle := foldProblem(t, preset.cfg, true)
		p.Oracle = oracle
		// "Some" prelabels: every 37th unlabeled link, answered by the oracle.
		var preIdx []int
		var preY []float64
		for idx := len(p.LabeledPos) + 5; idx < len(p.Links); idx += 37 {
			preIdx, preY = append(preIdx, idx), append(preY, oracle.Label(p.Links[idx]))
		}
		for _, strat := range strategies {
			for _, budget := range []int{0, 100} {
				for _, prelabeled := range []bool{false, true} {
					for _, exact := range []bool{false, true} {
						if exact && preset.name == "small" && strat.Name() != "conflict" {
							continue // the Hungarian runs are the slow ones; one strategy covers the path
						}
						name := fmt.Sprintf("%s/%s/budget%d/prelabeled=%v/exact=%v", preset.name, strat.Name(), budget, prelabeled, exact)
						t.Run(name, func(t *testing.T) {
							q := p
							if prelabeled {
								q.Prelabeled, q.PrelabeledY = preIdx, preY
							}
							cfg := Config{Budget: budget, BatchSize: 5, ExactSelection: exact, Seed: 11}
							if budget > 0 {
								cfg.Strategy = strat
							}
							want, wantQueried, err := referenceTrain(q, cfg)
							if err != nil {
								t.Fatal(err)
							}
							got, err := Train(q, cfg)
							if err != nil {
								t.Fatal(err)
							}
							requireSameRun(t, q, got, want, wantQueried)
							if budget > 0 && got.QueryCount() == 0 {
								t.Fatal("a run with a budget asked nothing")
							}
						})
					}
				}
			}
		}
	}
}

// poisonOracle answers NaN once, which drives w — and from then on
// every score — non-finite.
type poisonOracle struct {
	inner active.Oracle
	asked int
}

func (o *poisonOracle) Label(a hetnet.Anchor) float64 {
	o.asked++
	if o.asked == 3 {
		return math.NaN()
	}
	return o.inner.Label(a)
}

// TestTrainNonFiniteWeightsScoreAsDense: once w is NaN the dense kernel
// scored every row NaN — a zero cell times NaN is NaN, so even a link
// with no feature at all — selection dropped them all and the
// strategies ranked NaNs. Without a bias column the pool has all-zero
// rows, which rows that skipped their zero cells would score 0 and
// query first; the compressed rows must score as the dense kernel did.
func TestTrainNonFiniteWeightsScoreAsDense(t *testing.T) {
	p, oracle := foldProblem(t, datagen.Tiny(), false)
	empty := 0
	for r := range p.Links {
		if p.X.RowView(r).Norm1() == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("the pool has no all-zero feature row to tell the kernels apart")
	}
	cfg := Config{Budget: 30, BatchSize: 5, Strategy: active.Uncertainty{}, Seed: 3}
	p.Oracle = &poisonOracle{inner: oracle}
	want, wantQueried, err := referenceTrain(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Oracle = &poisonOracle{inner: oracle}
	got, err := Train(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, p, got, want, wantQueried)
	for r, s := range got.Scores {
		if s == s {
			t.Fatalf("row %d scores %v; a NaN weight must reach every row", r, s)
		}
	}
}
