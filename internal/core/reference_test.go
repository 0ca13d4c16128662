package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
	"github.com/activeiter/activeiter/internal/telemetry"
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
// design matrix, rescanned kind[] for the unlabeled links in every pass,
// cloned the occupied endpoints per internal iteration and handed the
// strategy a copy of the unlabeled links. It returns
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
		for it := 0; it < maxInternalIters; it++ {
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
			if delta == 0 {
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
		all := make([]int, len(stIdx))
		for pos := range all {
			all[pos] = pos
		}
		picks := cfg.Strategy.Select(&active.State{
			Links: stLinks, Scores: stScores, Labels: stLabels, Unlabeled: all,
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

// defaultShapedProblem is a pool the shape of a `default` fold —
// 7,216 links across 1,045 × 1,078 users, 32 features of which a tenth
// are non-zero, 65 labeled positives — drawn directly instead of
// counted, so the test can afford it: more than two row blocks, which is
// what starts Train's helper. Like the pipeline's pools it lists every
// link once.
func defaultShapedProblem() (Problem, active.Oracle) {
	rng := rand.New(rand.NewSource(9))
	const users1, users2, anchors, n, d, labeled = 1045, 1078, 656, 7216, 32, 65
	truth := make(map[int64]bool, anchors)
	links := make([]hetnet.Anchor, 0, n)
	for _, i := range rng.Perm(users1)[:anchors] {
		links = append(links, hetnet.Anchor{I: i, J: i})
		truth[hetnet.Key(i, i)] = true
	}
	seen := make(map[int64]bool, n)
	for len(links) < n {
		if l := (hetnet.Anchor{I: rng.Intn(users1), J: rng.Intn(users2)}); l.I != l.J && !seen[hetnet.Key(l.I, l.J)] {
			seen[hetnet.Key(l.I, l.J)] = true
			links = append(links, l)
		}
	}
	x := linalg.NewDense(n, d)
	for r := range links {
		x.Set(r, d-1, 1) // bias
		share := 0.04    // with the bias column: a tenth of the cells
		if r < anchors {
			share = 0.4 // true anchors share more diagrams, more strongly
		}
		for j := 0; j < d-1; j++ {
			if rng.Float64() < share {
				x.Set(r, j, share*rng.Float64())
			}
		}
	}
	pos := make([]int, labeled)
	for i := range pos {
		pos[i] = i
	}
	return Problem{Links: links, X: x, LabeledPos: pos}, truthOracle(truth)
}

// conflictedProblem is a pool the conflict rule has work in, its feature
// rows set by hand. Column 0 carries the labeled positives' signal and
// column 1 the sampled negatives'; each of twelve triples on fresh users
// A, B, C, D scores its links in proportion to their column-0 cell:
//
//	l′ = (A, B) at 0.80, l = (A, C) at 0.78, l″ = (D, C) at 0.62
//
// so greedy selection takes l′ and l″, and l — a negative within
// CloseTol of l′ and at least Margin above l″ — is the link the paper's
// strategy queries. Every other l is a true anchor.
func conflictedProblem() (Problem, active.Oracle) {
	const labeled, negatives, triples = 30, 200, 12
	truth := make(map[int64]bool)
	var links []hetnet.Anchor
	var rows [][2]float64
	add := func(l hetnet.Anchor, row [2]float64, anchor bool) {
		links, rows = append(links, l), append(rows, row)
		if anchor {
			truth[hetnet.Key(l.I, l.J)] = true
		}
	}
	for i := 0; i < labeled; i++ {
		add(hetnet.Anchor{I: i, J: i}, [2]float64{1, 0}, true)
	}
	for r := 0; r < negatives; r++ {
		add(hetnet.Anchor{I: 500 + r, J: 800 + r*7%negatives}, [2]float64{0, 1}, false)
	}
	for t := 0; t < triples; t++ {
		a, b, c, d := 100+4*t, 101+4*t, 102+4*t, 103+4*t
		add(hetnet.Anchor{I: a, J: b}, [2]float64{0.80, 0}, t%2 == 1)
		add(hetnet.Anchor{I: a, J: c}, [2]float64{0.78, 0}, t%2 == 0)
		add(hetnet.Anchor{I: d, J: c}, [2]float64{0.62, 0}, false)
	}
	x := linalg.NewDense(len(links), 2)
	for r, row := range rows {
		x.Set(r, 0, row[0])
		x.Set(r, 1, row[1])
	}
	pos := make([]int, labeled)
	for i := range pos {
		pos[i] = i
	}
	return Problem{Links: links, X: x, LabeledPos: pos}, truthOracle(truth)
}

// truthOracle answers from a set of true links keyed by hetnet.Key.
type truthOracle map[int64]bool

func (o truthOracle) Label(a hetnet.Anchor) float64 {
	if o[hetnet.Key(a.I, a.J)] {
		return 1
	}
	return 0
}

// countingStrategy wraps a strategy and records the process's goroutine
// count at every Select — inside Train, while any helper is running.
type countingStrategy struct {
	active.Strategy
	goroutines *[]int
}

func (s countingStrategy) Select(st *active.State, k int, rng *rand.Rand) []int {
	*s.goroutines = append(*s.goroutines, runtime.NumGoroutine())
	return s.Strategy.Select(st, k, rng)
}

// TestTrainMatchesReferenceLoop runs Train and the loop it replaced on
// the same problems — two presets, a `default`-shaped pool and a pool
// the conflict rule picks from × three strategies × no budget and 100
// queries × with and without labels fixed by an earlier round × greedy
// and exact selection — and requires the same run, at GOMAXPROCS 1, 2
// and 4. The `default`-shaped pool spans more than two row blocks, so
// from two cores on its steps share their blocks with the helper; the
// strategy sees the helper running. Every conflict run on the
// conflicted pool must pick a link by the rule, not only by the fill.
func TestTrainMatchesReferenceLoop(t *testing.T) {
	strategies := []active.Strategy{active.Conflict{CloseTol: 0.05}, active.Uncertainty{}, active.Random{}}
	type problem struct {
		name   string
		p      Problem
		oracle active.Oracle
	}
	var problems []problem
	for _, preset := range []struct {
		name string
		cfg  datagen.Config
	}{{"tiny", datagen.Tiny()}, {"small", datagen.Small()}} {
		p, oracle := foldProblem(t, preset.cfg, true)
		problems = append(problems, problem{preset.name, p, oracle})
	}
	p, oracle := defaultShapedProblem()
	if blocks := (len(p.Links) + blockRows - 1) / blockRows; blocks <= 2 {
		t.Fatalf("the default-shaped pool spans %d row blocks; the helper needs more than 2", blocks)
	}
	problems = append(problems, problem{"default-shaped", p, oracle})
	p, oracle = conflictedProblem()
	problems = append(problems, problem{"conflicted", p, oracle})
	// The conflict rule's own picks: the generated pools never give it
	// one, so only the conflicted pool shows the rule's picks agree.
	byRule := telemetry.Default.Counter("activeiter_query_picks_total", "", telemetry.L("source", "conflict"))
	// A leaf subtest runs beside this test's goroutine and its procs
	// subtest's, both blocked in t.Run; the sleep lets any goroutine an
	// earlier test stopped leave the count first.
	time.Sleep(10 * time.Millisecond)
	leafGoroutines := runtime.NumGoroutine() + 2
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, pr := range problems {
				p := pr.p
				p.Oracle = pr.oracle
				// "Some" prelabels: every 37th unlabeled link, answered by the oracle.
				var preIdx []int
				var preY []float64
				for idx := len(p.LabeledPos) + 5; idx < len(p.Links); idx += 37 {
					preIdx, preY = append(preIdx, idx), append(preY, pr.oracle.Label(p.Links[idx]))
				}
				helped := pr.name == "default-shaped" && procs > 1
				for _, strat := range strategies {
					for _, budget := range []int{0, 100} {
						for _, prelabeled := range []bool{false, true} {
							for _, exact := range []bool{false, true} {
								// The Hungarian runs are the slow ones: one strategy
								// covers the path at small, and none at the default
								// shape, where it would take minutes.
								if exact && (pr.name == "default-shaped" || pr.name == "small" && strat.Name() != "conflict") {
									continue
								}
								name := fmt.Sprintf("%s/%s/budget%d/prelabeled=%v/exact=%v", pr.name, strat.Name(), budget, prelabeled, exact)
								t.Run(name, func(t *testing.T) {
									q := p
									if prelabeled {
										q.Prelabeled, q.PrelabeledY = preIdx, preY
									}
									cfg := Config{Budget: budget, BatchSize: 5, ExactSelection: exact, Seed: 11}
									var during []int
									if budget > 0 {
										cfg.Strategy = countingStrategy{strat, &during}
									}
									want, wantQueried, err := referenceTrain(q, cfg)
									if err != nil {
										t.Fatal(err)
									}
									during = during[:0]
									// The previous Train's helper may still be on its
									// way out.
									before := settledGoroutines(leafGoroutines)
									admitted := byRule.Value()
									got, err := Train(q, cfg)
									if err != nil {
										t.Fatal(err)
									}
									admitted = byRule.Value() - admitted
									requireSameRun(t, q, got, want, wantQueried)
									if pr.name == "conflicted" && strat.Name() == "conflict" && budget > 0 && admitted == 0 {
										t.Fatal("the conflict rule picked no link of the conflicted pool")
									}
									if budget > 0 && got.QueryCount() == 0 {
										t.Fatal("a run with a budget asked nothing")
									}
									wantDuring := before
									if helped {
										wantDuring++
									}
									for r, n := range during {
										if n != wantDuring {
											t.Fatalf("query round %d ran beside %d goroutines, want %d (helper expected: %v)", r, n, wantDuring, helped)
										}
									}
								})
							}
						}
					}
				}
			}
		})
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
