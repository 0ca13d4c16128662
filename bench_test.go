package activeiter

// Micro-benchmarks for the substrates that dominate the pipeline (run
// `go test -bench=. -benchmem`), plus the kernels behind Table II,
// Figure 4 and the matching ablation. The paper's tables and figures as
// whole experiments are BenchmarkExperiments in internal/experiments
// (docs/EXPERIMENTS.md); cmd/experiments produces the full-size runs.
// Facade-level timings (sharded, distributed, snapshot load, serving)
// are `go run ./bench` workloads, not benchmarks here.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/matching"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// benchPair lazily generates shared fixtures so individual benchmarks
// measure their own work, not dataset generation.
var (
	benchOnce sync.Once
	benchTiny *AlignedPair
)

func tinyPair(b *testing.B) *AlignedPair {
	b.Helper()
	benchOnce.Do(func() {
		p, err := datagen.Generate(datagen.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		benchTiny = p
	})
	return benchTiny
}

// BenchmarkTableII regenerates the dataset-statistics artifact: one full
// synthetic pair generation at the small preset.
func BenchmarkTableII(b *testing.B) {
	cfg := datagen.Small()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		pair, err := datagen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(pair.Anchors) != cfg.AnchorCount {
			b.Fatal("wrong anchor count")
		}
	}
}

// BenchmarkFig4 measures the quantity Figure 4 plots: one ActiveIter-50
// training run (feature extraction excluded, matching the paper's
// scalability claim about the learning loop).
func BenchmarkFig4(b *testing.B) {
	pair := tinyPair(b)
	prob, truthOracle := benchProblem(b, pair, 10)
	prob.Oracle = truthOracle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Train(prob, core.Config{
			Budget: 50, BatchSize: 5, Strategy: active.Conflict{}, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.QueryCount() == 0 {
			b.Fatal("no queries")
		}
	}
}

// BenchmarkAblationMatching compares the two selection algorithms on
// identical candidate sets (docs/EXPERIMENTS.md, ablation-matching).
func BenchmarkAblationMatching(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var cands []matching.Candidate
	for k := 0; k < 2000; k++ {
		cands = append(cands, matching.Candidate{
			I: rng.Intn(200), J: rng.Intn(200), Score: rng.Float64(), Payload: k,
		})
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.Greedy(cands, 0.5, nil)
		}
	})
	b.Run("hungarian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.Exact(cands, 0.5, nil)
		}
	})
}

// --- substrate micro-benchmarks ---

// benchCSR fills an r×c matrix at the given density with values drawn
// from val.
func benchCSR(rng *rand.Rand, r, c int, density float64, val func() float64) *sparse.CSR {
	bd := sparse.NewBuilder(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				bd.Add(i, j, val())
			}
		}
	}
	return bd.Build()
}

// BenchmarkSpGEMM times a product of two 2 % dense squares, serial and
// parallel, and two products at the `default` preset's scale:
// "dense-output" is shaped like P5 — a user×location check-in matrix
// times a location×user one, whose output is more than half full — and
// "thin-anchor" is a follow matrix times a partial anchor matching,
// whose few entries per row scatter across the width.
func BenchmarkSpGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	one := func() float64 { return 1 }
	a := benchCSR(rng, 500, 500, 0.02, one)
	c := benchCSR(rng, 500, 500, 0.02, one)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.MatMul(a, c)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.MatMulParallel(a, c)
		}
	})
	const users1, users2, locations = 1045, 1078, 100
	checkin1 := benchCSR(rng, users1, locations, 0.1, one)
	checkin2 := benchCSR(rng, users2, locations, 0.1, one).T()
	if p := sparse.MatMul(checkin1, checkin2); p.NNZ()*2 < users1*users2 {
		b.Fatalf("dense-output product is %d of %d cells, want at least half", p.NNZ(), users1*users2)
	}
	b.Run("dense-output", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sparse.MatMulParallel(checkin1, checkin2)
		}
	})
	follow := benchCSR(rng, users1, users1, 0.01, one)
	anchors := sparse.NewBuilder(users1, users2)
	js := rng.Perm(users2)
	for k, i := range rng.Perm(users1)[:users1/2] {
		anchors.Add(i, js[k], 1)
	}
	anchor := anchors.Build()
	b.Run("thin-anchor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sparse.MatMulParallel(follow, anchor)
		}
	})
}

func BenchmarkDiagramCounting(b *testing.B) {
	pair := tinyPair(b)
	lib := schema.StandardLibrary()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			counter, err := metadiag.NewCounter(pair)
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range lib.All() {
				if _, err := counter.Count(n.D); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	// cold-attribute counts Ψ^a² alone on a fresh counter: the joint
	// (timestamp, location) stack chained between the two write
	// adjacencies.
	psiA2 := schema.AttributeDiagram(hetnet.At, hetnet.Checkin)
	b.Run("cold-attribute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			counter, err := metadiag.NewCounter(pair)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := counter.Count(psiA2); err != nil {
				b.Fatal(err)
			}
		}
	})
	// cold-default is mono_cold's count path: a fresh counter warming the
	// library's anchor-free layer on the `default`-shaped pair, whose
	// networks already hold their adjacencies from an earlier counter.
	b.Run("cold-default", func(b *testing.B) {
		pair, _, _ := defaultShape(b)
		warm := func() {
			counter, err := metadiag.NewCounter(pair)
			if err != nil {
				b.Fatal(err)
			}
			if err := counter.Warm(lib.All()); err != nil {
				b.Fatal(err)
			}
		}
		warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			warm()
		}
	})
	b.Run("warm-lemma2-cache", func(b *testing.B) {
		b.ReportAllocs()
		counter, err := metadiag.NewCounter(pair)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range lib.All() {
			if _, err := counter.Count(n.D); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, n := range lib.All() {
				if _, err := counter.Count(n.D); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	// forked-shared-cache measures the cross-fold path the experiment
	// runners now take: each iteration forks a warm base counter (fresh
	// anchor-dependent layer) and recounts the library, reusing the
	// shared attribute-only cache.
	b.Run("forked-shared-cache", func(b *testing.B) {
		b.ReportAllocs()
		base, err := metadiag.NewCounter(pair)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range lib.All() {
			if _, err := base.Count(n.D); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fork := base.Fork()
			fork.SetAnchors(pair.Anchors[:len(pair.Anchors)/2])
			for _, n := range lib.All() {
				if _, err := fork.Count(n.D); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkFeatureExtraction(b *testing.B) {
	pair := tinyPair(b)
	counter, err := metadiag.NewCounter(pair)
	if err != nil {
		b.Fatal(err)
	}
	ext := metadiag.NewExtractor(counter, schema.StandardLibrary().All(), true)
	rng := rand.New(rand.NewSource(3))
	links, err := eval.SampleNegatives(pair, 1000, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ext.FeatureMatrix(links); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRidgeSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n, d := 5000, 32
	x := linalg.NewDense(n, d)
	y := make(linalg.Vector, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		if rng.Float64() < 0.1 {
			y[i] = 1
		}
	}
	ridge, err := linalg.NewRidge(x, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("factorize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := linalg.NewRidge(x, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ridge.Solve(x, y)
		}
	})
}

func BenchmarkGreedySelection(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var cands []matching.Candidate
	for k := 0; k < 50000; k++ {
		cands = append(cands, matching.Candidate{
			I: rng.Intn(5000), J: rng.Intn(5000), Score: rng.Float64(), Payload: k,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.Greedy(cands, 0.5, nil)
	}
}

// BenchmarkQuerySelection times one query round as Train hands it to a
// strategy: a view of the whole pool, read in place. The pool has the
// shape of a warm `default` fold's — 7,216 links across 1,045 × 1,078
// users, 165 of them labelled (65 in L⁺, 100 queried) and left out of
// Unlabeled, 190 of the rest inferred positive as a partial matching
// spread over the users, the others unlabeled negatives — and each
// strategy picks k = 5 of it. Positives score in [0.5, 1). In the `wide`
// pool negatives score in [0, 0.7), so about a fifth of them clear the
// weakest positive + Margin and the conflict rule builds its tables; in
// the `bounded` pool they score in [0, 0.5), none does, and the rule is
// skipped — the round a warm fold almost always sees.
func BenchmarkQuerySelection(b *testing.B) {
	const users1, users2, n, labelled, positives = 1045, 1078, 7216, 165, 190
	const every = (n - labelled) / positives // unlabeled links per inferred positive
	pool := func(negatives float64) *active.State {
		rng := rand.New(rand.NewSource(7))
		st := &active.State{}
		left, right := rng.Perm(users1), rng.Perm(users2)
		for idx := 0; idx < n; idx++ {
			l, score, label := Anchor{I: rng.Intn(users1), J: rng.Intn(users2)}, negatives*rng.Float64(), 0.0
			switch u := idx - labelled; {
			case u < 0:
				label = float64(idx % 2)
			case u%every == 0 && u/every < positives:
				// The inferred positives take distinct users on both sides.
				p := u / every
				l, score, label = Anchor{I: left[p], J: right[p]}, 0.5+0.5*rng.Float64(), 1
			}
			st.Links = append(st.Links, l)
			st.Scores = append(st.Scores, score)
			st.Labels = append(st.Labels, label)
			if idx >= labelled {
				st.Unlabeled = append(st.Unlabeled, idx)
			}
		}
		return st
	}
	rng := rand.New(rand.NewSource(7))
	for _, p := range []struct {
		name       string
		negatives  float64
		strategies []active.Strategy
	}{
		{"wide", 0.7, []active.Strategy{active.Conflict{CloseTol: 0.05}, active.Uncertainty{}, active.Random{}}},
		{"bounded", 0.5, []active.Strategy{active.Conflict{CloseTol: 0.05}}},
	} {
		st := pool(p.negatives)
		for _, s := range p.strategies {
			b.Run(p.name+"/"+s.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got := s.Select(st, 5, rng); len(got) != 5 {
						b.Fatalf("selected %d links", len(got))
					}
				}
			})
		}
	}
}

// BenchmarkTrainLoop times one core.Train over a pool the shape of a
// default-preset fold — 7,216 links across 1,045 × 1,078 users, 32
// features of which a tenth are non-zero, 65 labeled positives — with
// the conflict strategy spending 100 queries in batches of 5: ridge,
// scoring, greedy selection and query selection, alternated as a warm
// fold alternates them.
func BenchmarkTrainLoop(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const users1, users2, anchors, n, d, labeled = 1045, 1078, 656, 7216, 32, 65
	truth := make(map[int64]bool, anchors)
	links := make([]Anchor, 0, n)
	for _, i := range rng.Perm(users1)[:anchors] {
		links = append(links, Anchor{I: i, J: i})
		truth[hetnet.Key(i, i)] = true
	}
	for len(links) < n {
		if l := (Anchor{I: rng.Intn(users1), J: rng.Intn(users2)}); l.I != l.J {
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
	prob := core.Problem{Links: links, X: x, LabeledPos: pos, Oracle: truthMapOracle(truth)}
	cfg := core.Config{Budget: 100, BatchSize: 5, Strategy: active.Conflict{CloseTol: 0.05}, Seed: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Train(prob, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.QueryCount() != cfg.Budget {
			b.Fatalf("spent %d of %d queries", res.QueryCount(), cfg.Budget)
		}
	}
}

// truthMapOracle answers from a set of true links keyed by hetnet.Key.
type truthMapOracle map[int64]bool

func (o truthMapOracle) Label(a Anchor) float64 {
	if o[hetnet.Key(a.I, a.J)] {
		return 1
	}
	return 0
}

// BenchmarkHadamard times the endpoint join in its two regimes. Rows
// whose longer side has no rank index merge: `merge` stacks two 1 %
// dense counts. The rest probe the longer side's index from the shorter
// row: `balanced` (two 55 % dense counts), `skewed` (20 k entries
// against 640 k, rows 32× apart) and `indexed`, the warm fold's own
// stacking — a 20 k-entry anchor-path count on a 57 % dense, 640 k-entry
// attribute count of the default preset's shape, its index built before
// the timer starts as it is for every fold after the first.
func BenchmarkHadamard(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	one := func() float64 { return 1 }
	for _, c := range []struct {
		name        string
		rows, cols  int
		short, long float64
	}{
		{"merge", 1000, 1000, 0.01, 0.01},
		{"balanced", 1000, 1000, 0.55, 0.55},
		{"skewed", 1000, 1000, 0.02, 0.64},
		{"indexed", 1045, 1078, 20e3 / (1045 * 1078), 0.57},
	} {
		short, long := benchCSR(rng, c.rows, c.cols, c.short, one), benchCSR(rng, c.rows, c.cols, c.long, one)
		b.Run(c.name, func(b *testing.B) {
			sparse.Hadamard(short, long)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparse.Hadamard(short, long)
			}
		})
	}
}

// defaultShape is the `default`-shaped pair of `go run ./bench`
// (bench/config.go, seed 101) with its anchors in the harness's seeded
// shuffle and its ten negatives per anchor.
func defaultShape(b *testing.B) (pair *AlignedPair, anchors, negatives []Anchor) {
	b.Helper()
	pair, err := datagen.Generate(datagen.Config{
		Users1: 1045, Users2: 1078, AnchorCount: 656,
		AvgFollows1: 31.6, AvgFollows2: 14.3,
		EdgeKeep1: 0.7, EdgeKeep2: 0.6, NoiseEdgeFrac: 0.2,
		PostsPerUser1: 10, PostsPerUser2: 6,
		Locations: 900, TimeBuckets: 96,
		Words: 800, WordsPerPost: 2,
		RoutineSize: 3, Dislocation: 0.35, ZipfS: 1.4,
		CommunityCombos: 80, CommunityShare: 0.5,
		Seed: 101,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(101))
	anchors = append([]Anchor(nil), pair.Anchors...)
	rng.Shuffle(len(anchors), func(i, j int) { anchors[i], anchors[j] = anchors[j], anchors[i] })
	negatives, err = eval.SampleNegatives(pair, 10*len(anchors), rng)
	if err != nil {
		b.Fatal(err)
	}
	return pair, anchors, negatives
}

// BenchmarkMerge is the shard merge alone — every vote through
// partition.Merger.Add, then Finish's one-to-one greedy — on the real
// votes of the first fold of the `default` shape (defaultShape: one
// fold of ten labelled, the rest of the anchors and every negative as
// candidates, ActiveIter-100 with the conflict strategy). K=1 is the
// one-part pool, 7,216 votes; K=4 is the votes of a four-part plan's
// overlapping pools, in part order. The merger is sized from the plan,
// as the executors size theirs.
func BenchmarkMerge(b *testing.B) {
	pair, anchors, neg := defaultShape(b)
	fold := len(anchors) / 10
	trainPos := anchors[:fold]
	candidates := append(append([]Anchor(nil), anchors[fold:]...), neg...)
	opts, err := Options{Budget: 100, BatchSize: 5, Seed: 101}.resolve()
	if err != nil {
		b.Fatal(err)
	}
	base, err := metadiag.NewCounter(pair)
	if err != nil {
		b.Fatal(err)
	}
	planner, err := partition.NewPlanner(base)
	if err != nil {
		b.Fatal(err)
	}
	oracle := NewTruthOracle(pair)
	for _, k := range []int{1, 4} {
		plan, err := planner.Plan(trainPos, candidates, 100, partition.Config{K: k})
		if err != nil {
			b.Fatal(err)
		}
		var votes []partition.Vote
		for p := range plan.Parts {
			part := &plan.Parts[p]
			counter := base.Fork()
			counter.SetAnchors(part.TrainPos)
			prep, err := partition.PreparePart(counter, part, opts.Features)
			if err != nil {
				b.Fatal(err)
			}
			res, err := prep.Train(part, opts.Core, oracle)
			if err != nil {
				b.Fatal(err)
			}
			votes = append(votes, partition.PartVotes(part, prep.Links, res)...)
		}
		b.Run(fmt.Sprintf("K=%d/votes=%d", k, len(votes)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := plan.NewMerger()
				for _, v := range votes {
					m.Add(v)
				}
				m.Finish()
			}
		})
	}
}

// BenchmarkPlanner is the fold-independent half of planning plus one
// plan, on the first fold of the `default` shape (defaultShape): each
// iteration derives a fresh partition.Planner from a base counter — the
// follow graphs' neighbour lists — and plans K = 4 parts.
func BenchmarkPlanner(b *testing.B) {
	pair, anchors, neg := defaultShape(b)
	fold := len(anchors) / 10
	trainPos := anchors[:fold]
	candidates := append(append([]Anchor(nil), anchors[fold:]...), neg...)
	base, err := metadiag.NewCounter(pair)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planner, err := partition.NewPlanner(base)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := planner.Plan(trainPos, candidates, 100, partition.Config{K: 4})
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Parts) != 4 {
			b.Fatalf("plan has %d parts, want 4", len(plan.Parts))
		}
	}
}

// BenchmarkWarmRecount is the anchor layer's share of one warm fold on
// the `default`-shaped pair of `go run ./bench` (bench/config.go, seed
// 101): SetAnchors(fold) → Recompute → FeatureMatrix(pool) on a counter
// whose attribute layer is cached, with one fold of ten labelled (what
// the benchmark's workloads run) and with nine (cmd/experiments at
// γ = 0.9). Both re-label one fixed set, so after the first iterations
// they read every anchor's stored marginal terms. `rotating` labels the
// ten folds in turn, timed once two rounds have stored every anchor's
// terms — the `fold_warm` steady state — and `cold` gives every
// iteration a fresh counter family over the same cached counts, so
// every anchor is new and walked.
func BenchmarkWarmRecount(b *testing.B) {
	pair, anchors, neg := defaultShape(b)
	pool := append(append([]Anchor(nil), anchors...), neg...)
	feats := schema.StandardLibrary().All()
	counter, err := metadiag.NewCounter(pair)
	if err != nil {
		b.Fatal(err)
	}
	ext := metadiag.NewExtractor(counter, feats, true)
	if err := ext.Recompute(); err != nil { // warms the attribute layer
		b.Fatal(err)
	}
	recount := func(b *testing.B, c *metadiag.Counter, ext *metadiag.Extractor, labelled []Anchor) {
		c.SetAnchors(labelled)
		if err := ext.Recompute(); err != nil {
			b.Fatal(err)
		}
		if _, err := ext.FeatureMatrix(pool); err != nil {
			b.Fatal(err)
		}
	}
	fold := len(anchors) / 10
	for _, labelled := range [][]Anchor{anchors[:fold], anchors[fold:]} {
		b.Run(fmt.Sprintf("anchors=%d/pool=%d", len(labelled), len(pool)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recount(b, counter, ext, labelled)
			}
		})
	}
	// A new family over the counts cached above: a counter built from
	// the seed shares the matrices, not the stored terms.
	seed, err := counter.ExportSeed(feats)
	if err != nil {
		b.Fatal(err)
	}
	family := func(b *testing.B) (*metadiag.Counter, *metadiag.Extractor) {
		c, err := metadiag.NewSeededCounter(seed)
		if err != nil {
			b.Fatal(err)
		}
		ext := metadiag.NewExtractor(c, feats, true)
		if err := ext.Recompute(); err != nil { // no anchors: indexes the stacked counts
			b.Fatal(err)
		}
		return c, ext
	}
	folds := func(i int) []Anchor { return anchors[i%10*fold : (i%10+1)*fold] }
	b.Run("rotating", func(b *testing.B) {
		c, ext := family(b)
		for i := 0; i < 20; i++ {
			recount(b, c, ext, folds(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recount(b, c, ext, folds(i))
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, ext := family(b)
			b.StartTimer()
			recount(b, c, ext, folds(i))
		}
	})
}

// benchProblem builds a training problem over the tiny pair with real
// meta diagram features.
func benchProblem(b *testing.B, pair *AlignedPair, nTrain int) (core.Problem, Oracle) {
	b.Helper()
	counter, err := metadiag.NewCounter(pair)
	if err != nil {
		b.Fatal(err)
	}
	trainPos := pair.Anchors[:nTrain]
	counter.SetAnchors(trainPos)
	ext := metadiag.NewExtractor(counter, schema.StandardLibrary().All(), true)
	rng := rand.New(rand.NewSource(6))
	neg, err := eval.SampleNegatives(pair, 10*len(pair.Anchors), rng)
	if err != nil {
		b.Fatal(err)
	}
	links := append([]Anchor{}, pair.Anchors...)
	links = append(links, neg...)
	x, err := ext.FeatureMatrix(links)
	if err != nil {
		b.Fatal(err)
	}
	labeled := make([]int, nTrain)
	for i := range labeled {
		labeled[i] = i
	}
	return core.Problem{Links: links, X: x, LabeledPos: labeled}, NewTruthOracle(pair)
}

// BenchmarkCandidatePairs is the facade's proposal path on the
// `default` shape (defaultShape): one aligner whose base has counted the
// attribute layer once, proposing k = 5 counterparts per user for the
// first fold's anchors — a fresh fork, its Recompute and the scoring of
// every connected pair, each iteration.
func BenchmarkCandidatePairs(b *testing.B) {
	pair, anchors, _ := defaultShape(b)
	trainPos := anchors[:len(anchors)/10]
	aligner, err := New(pair, Options{Seed: 101})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := aligner.CandidatePairs(trainPos, 5); err != nil { // warms the base
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aligner.CandidatePairs(trainPos, 5); err != nil {
			b.Fatal(err)
		}
	}
}
