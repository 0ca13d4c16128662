package activeiter

// Benchmark harness: one benchmark per table and figure of the paper
// (run `go test -bench=. -benchmem`), plus micro-benchmarks for the
// substrates that dominate the pipeline. EXPERIMENTS.md records the
// regenerated artifacts; cmd/experiments produces the full-size runs.

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/experiments"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/matching"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/snapshot"
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

// BenchmarkTableIII regenerates one Table III cell (all six methods,
// every fold) at θ = FixedTheta on the tiny preset.
func BenchmarkTableIII(b *testing.B) {
	pre := experiments.TinyPreset()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.RunTable3(experiments.Preset{
			Name: pre.Name, Data: pre.Data, Folds: pre.Folds,
			ThetaValues: []int{pre.FixedTheta}, GammaValues: pre.GammaValues,
			FixedTheta: pre.FixedTheta, FixedGamma: pre.FixedGamma,
			Budgets: pre.Budgets, Seed: pre.Seed + int64(i), Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Sections) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIV regenerates one Table IV cell (γ sweep point).
func BenchmarkTableIV(b *testing.B) {
	pre := experiments.TinyPreset()
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunTable4(experiments.Preset{
			Name: pre.Name, Data: pre.Data, Folds: pre.Folds,
			ThetaValues: pre.ThetaValues, GammaValues: []float64{pre.FixedGamma},
			FixedTheta: pre.FixedTheta, FixedGamma: pre.FixedGamma,
			Budgets: pre.Budgets, Seed: pre.Seed + int64(i), Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates the convergence trace (Figure 3).
func BenchmarkFig3(b *testing.B) {
	pre := experiments.TinyPreset()
	for i := 0; i < b.N; i++ {
		series, _, err := experiments.RunFig3(pre)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) == 0 {
			b.Fatal("no series")
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

// BenchmarkFig5 regenerates one Figure 5 point: ActiveIter at a single
// budget, all folds.
func BenchmarkFig5(b *testing.B) {
	pre := experiments.TinyPreset()
	pre.Budgets = []int{10}
	for i := 0; i < b.N; i++ {
		pre.Seed = int64(i + 1)
		if _, err := experiments.RunFig5(pre); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMatching compares the two selection algorithms on
// identical candidate sets (DESIGN.md E7).
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
}

// BenchmarkMatMulTopK times a truncated product shaped like the
// partition planner's propagation step — a row-normalized follow
// operator times a 16-per-row similarity, whose untruncated product is
// near-dense — fused against product-then-truncate.
func BenchmarkMatMulTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const k = 16
	w := benchCSR(rng, 1000, 1000, 0.03, rng.Float64)
	r := benchCSR(rng, 1000, 1000, 0.2, rng.Float64).TopKPerRow(k)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sparse.MatMulTopK(w, r, k)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sparse.MatMulParallel(w, r).TopKPerRow(k)
		}
	})
}

func BenchmarkDiagramCounting(b *testing.B) {
	pair := tinyPair(b)
	lib := schema.StandardLibrary()
	b.Run("cold", func(b *testing.B) {
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
	b.Run("warm-lemma2-cache", func(b *testing.B) {
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

// BenchmarkPartitionedAlignment compares one monolithic alignment pass
// against the partitioned pipeline at several K on the small dataset —
// the PR 2 scalability artifact (large-pair runs come from
// cmd/experiments -exp scalability; gated figures from go run ./bench).
func BenchmarkPartitionedAlignment(b *testing.B) {
	pair, err := datagen.Generate(datagen.Small())
	if err != nil {
		b.Fatal(err)
	}
	anchors := pair.Anchors
	trainPos := anchors[:len(anchors)/2]
	rng := rand.New(rand.NewSource(17))
	neg, err := eval.SampleNegatives(pair, 10*len(anchors), rng)
	if err != nil {
		b.Fatal(err)
	}
	candidates := append(append([]Anchor{}, anchors[len(anchors)/2:]...), neg...)
	for _, k := range []int{1, 4} {
		name := "monolithic"
		if k > 1 {
			name = "partitioned-K4"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				al, err := NewPartitioned(pair, Options{Seed: 9, Partitions: k})
				if err != nil {
					b.Fatal(err)
				}
				res, err := al.Align(trainPos, candidates, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.PredictedAnchors()) == 0 {
					b.Fatal("no predictions")
				}
			}
		})
	}
}

// BenchmarkDistributedLoopback measures the distributed pipeline's
// transport and serialization overhead against the in-process
// partitioned path it is property-tested equal to: the same K-shard
// plan executed on counter forks vs shipped (extracted, serialized) to
// loopback wire workers — the PR 3 artifact (large-pair and subprocess
// runs come from cmd/experiments -exp distributed; gated figures from
// go run ./bench).
func BenchmarkDistributedLoopback(b *testing.B) {
	pair, err := datagen.Generate(datagen.Small())
	if err != nil {
		b.Fatal(err)
	}
	anchors := pair.Anchors
	trainPos := anchors[:len(anchors)/2]
	rng := rand.New(rand.NewSource(17))
	neg, err := eval.SampleNegatives(pair, 10*len(anchors), rng)
	if err != nil {
		b.Fatal(err)
	}
	candidates := append(append([]Anchor{}, anchors[len(anchors)/2:]...), neg...)
	opts := Options{Seed: 9, Partitions: 4}
	b.Run("in-process-K4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			al, err := NewPartitioned(pair, opts)
			if err != nil {
				b.Fatal(err)
			}
			res, err := al.Align(trainPos, candidates, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.PredictedAnchors()) == 0 {
				b.Fatal("no predictions")
			}
		}
	})
	b.Run("loopback-K4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			al, err := NewDistributed(pair, opts, NewLoopbackTransport())
			if err != nil {
				b.Fatal(err)
			}
			res, err := al.Align(trainPos, candidates, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.PredictedAnchors()) == 0 {
				b.Fatal("no predictions")
			}
			if al.Metrics().JobBytes == 0 {
				b.Fatal("no bytes crossed the wire")
			}
			m := al.Metrics()
			b.ReportMetric(float64(m.JobBytes), "job-bytes")
			b.ReportMetric(float64(m.JobBytes)/float64(len(m.Shards)), "job-bytes/shard")
			b.ReportMetric(float64(m.SeedBytes), "seed-bytes")
		}
	})
}

// BenchmarkDistributedSessionRounds measures the sticky-session active
// loop — the PR 4 artifact: a 3-round retrain over one worker session
// with JobRef delta shipping, against the same rounds re-shipping full
// jobs (what PR 3's dispatch would pay per retrain). The reported
// job-bytes/delta-bytes split is the point: delta rounds move the
// per-retrain wire cost from the shard size to the label delta.
func BenchmarkDistributedSessionRounds(b *testing.B) {
	pair, err := datagen.Generate(datagen.Small())
	if err != nil {
		b.Fatal(err)
	}
	anchors := pair.Anchors
	trainPos := anchors[:len(anchors)/2]
	rng := rand.New(rand.NewSource(17))
	neg, err := eval.SampleNegatives(pair, 10*len(anchors), rng)
	if err != nil {
		b.Fatal(err)
	}
	candidates := append(append([]Anchor{}, anchors[len(anchors)/2:]...), neg...)
	oracle := NewTruthOracle(pair)
	run := func(b *testing.B, opts Options) {
		for i := 0; i < b.N; i++ {
			al, err := NewDistributed(pair, opts, NewLoopbackTransport())
			if err != nil {
				b.Fatal(err)
			}
			res, err := al.Align(trainPos, candidates, oracle)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.PredictedAnchors()) == 0 {
				b.Fatal("no predictions")
			}
			m := al.Metrics()
			b.ReportMetric(float64(m.JobBytes), "job-bytes")
			b.ReportMetric(float64(m.DeltaBytes), "delta-bytes")
			b.ReportMetric(float64(m.CacheHits), "cache-hits")
		}
	}
	b.Run("single-shot-K4", func(b *testing.B) {
		run(b, Options{Seed: 9, Partitions: 4, Budget: 30})
	})
	b.Run("session-3rounds-delta-K4", func(b *testing.B) {
		run(b, Options{Seed: 9, Partitions: 4, Budget: 30, Rounds: 3})
	})
}

// snapshotBenchFixture trains one tiny monolithic alignment and
// serializes its snapshot, shared across the serving benchmarks.
var (
	snapBenchOnce sync.Once
	snapBenchRaw  []byte
	snapBenchErr  error
)

func snapshotBenchBytes(b *testing.B) []byte {
	b.Helper()
	snapBenchOnce.Do(func() {
		pair := tinyPair(b)
		anchors := pair.Anchors
		nTrain := len(anchors) / 4
		trainPos, testPos := anchors[:nTrain], anchors[nTrain:]
		rng := rand.New(rand.NewSource(11))
		neg, err := eval.SampleNegatives(pair, 10*len(anchors), rng)
		if err != nil {
			snapBenchErr = err
			return
		}
		cands := append(append([]Anchor{}, testPos...), neg...)
		opts := Options{Seed: 1}
		a, err := New(pair, opts)
		if err != nil {
			snapBenchErr = err
			return
		}
		res, err := a.Align(trainPos, cands, nil)
		if err != nil {
			snapBenchErr = err
			return
		}
		snap, err := BuildSnapshot(SnapshotMonolithic, pair, res, opts)
		if err != nil {
			snapBenchErr = err
			return
		}
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			snapBenchErr = err
			return
		}
		snapBenchRaw = buf.Bytes()
	})
	if snapBenchErr != nil {
		b.Fatal(snapBenchErr)
	}
	return snapBenchRaw
}

// BenchmarkSnapshotLoad measures the serving cold-start path: decode a
// snapshot artifact and build the read-optimized index — the cost of
// an alignd start or reload.
func BenchmarkSnapshotLoad(b *testing.B) {
	raw := snapshotBenchBytes(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := snapshot.Read(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewServeIndex(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeTopK measures the hot query path — matched-partner
// lookup plus top-k candidate ranking — single-goroutine and across
// GOMAXPROCS clients (the index is immutable, so parallel should scale
// near-linearly).
func BenchmarkServeTopK(b *testing.B) {
	raw := snapshotBenchBytes(b)
	snap, err := snapshot.Read(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewServeIndex(snap)
	if err != nil {
		b.Fatal(err)
	}
	n1 := len(snap.Meta.Users1)
	// A package-level sink keeps the lookups from being optimized away;
	// correctness of MatchFor/CandidatesFor belongs to the tests, not
	// here (b.Fatal is illegal from RunParallel worker goroutines).
	query := func(u int32) int {
		m, _ := ix.MatchFor(1, u)
		return int(m.Index) + len(ix.CandidatesFor(1, u, 5))
	}
	b.Run("single", func(b *testing.B) {
		sum := 0
		for i := 0; i < b.N; i++ {
			sum += query(int32(i % n1))
		}
		benchSink = sum
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			u := int32(0)
			sum := 0
			for pb.Next() {
				sum += query(u % int32(n1))
				u++
			}
			benchSink = sum
		})
	})
}

// benchSink defeats dead-code elimination in the serving benchmarks.
var benchSink int
