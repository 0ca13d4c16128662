package partition

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// fixture generates the tiny pair and a train/candidate split shaped
// like the experiment protocol.
func fixture(t *testing.T) (pair *hetnet.AlignedPair, trainPos, candidates []hetnet.Anchor) {
	t.Helper()
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	n := len(pair.Anchors) / 2
	trainPos = pair.Anchors[:n]
	testPos := pair.Anchors[n:]
	rng := rand.New(rand.NewSource(5))
	neg, err := eval.SampleNegatives(pair, 8*len(pair.Anchors), rng)
	if err != nil {
		t.Fatal(err)
	}
	candidates = append(append([]hetnet.Anchor{}, testPos...), neg...)
	return pair, trainPos, candidates
}

func newBase(t *testing.T, pair *hetnet.AlignedPair) *metadiag.Counter {
	t.Helper()
	base, err := metadiag.NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// buildPlan plans once from nothing: SeedCached on an empty planner
// cache, then Assign.
func buildPlan(base *metadiag.Counter, trainPos, candidates []hetnet.Anchor, budget int, cfg Config) (*Plan, error) {
	var pl *Planner
	s, err := SeedCached(base, &pl, trainPos, cfg)
	if err != nil {
		return nil, err
	}
	return s.Assign(candidates, budget)
}

func TestPlanK1IsMonolithic(t *testing.T) {
	pair, trainPos, candidates := fixture(t)
	plan, err := buildPlan(newBase(t, pair), trainPos, candidates, 42, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Parts) != 1 {
		t.Fatalf("K=1 produced %d parts", len(plan.Parts))
	}
	p := plan.Parts[0]
	if len(p.TrainPos) != len(trainPos) || len(p.Candidates) != len(candidates) || p.Budget != 42 {
		t.Errorf("monolithic part lost inputs: %d anchors, %d candidates, budget %d",
			len(p.TrainPos), len(p.Candidates), p.Budget)
	}
	for i, c := range p.Candidates {
		if c != candidates[i] {
			t.Fatalf("candidate order changed at %d", i)
		}
	}
}

func TestPlanCoverageBalanceAndBudget(t *testing.T) {
	pair, trainPos, candidates := fixture(t)
	const k, budget = 3, 50
	plan, err := buildPlan(newBase(t, pair), trainPos, candidates, budget, Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Parts) != k {
		t.Fatalf("got %d parts, want %d", len(plan.Parts), k)
	}
	// Every partition needs at least one training anchor (PU training is
	// meaningless without positives) and the anchor groups partition the
	// training set.
	seenAnchor := make(map[int64]int)
	totalAnchors := 0
	for _, p := range plan.Parts {
		if len(p.TrainPos) == 0 {
			t.Errorf("partition %d has no training anchors", p.Index)
		}
		totalAnchors += len(p.TrainPos)
		for _, a := range p.TrainPos {
			seenAnchor[hetnet.Key(a.I, a.J)]++
		}
	}
	if totalAnchors != len(trainPos) {
		t.Errorf("anchor groups cover %d anchors, want %d", totalAnchors, len(trainPos))
	}
	for key, n := range seenAnchor {
		if n != 1 {
			i, j := hetnet.UnpackKey(key)
			t.Errorf("anchor (%d,%d) in %d groups", i, j, n)
		}
	}
	// Every candidate must appear in at least one partition; overlap in
	// at most two.
	seenCand := make(map[int64]int)
	for _, p := range plan.Parts {
		for _, c := range p.Candidates {
			seenCand[hetnet.Key(c.I, c.J)]++
		}
	}
	for _, c := range candidates {
		n := seenCand[hetnet.Key(c.I, c.J)]
		if n < 1 || n > 2 {
			t.Errorf("candidate (%d,%d) assigned to %d partitions", c.I, c.J, n)
		}
	}
	if plan.Candidates() != len(candidates)+plan.Overlapped {
		t.Errorf("assignment count %d ≠ candidates %d + overlapped %d",
			plan.Candidates(), len(candidates), plan.Overlapped)
	}
	// Budgets split the total exactly, proportional enough that no
	// non-empty shard is starved while another holds everything.
	sum := 0
	for _, p := range plan.Parts {
		sum += p.Budget
		if p.Budget < 0 {
			t.Errorf("partition %d has negative budget %d", p.Index, p.Budget)
		}
	}
	if sum != budget {
		t.Errorf("budgets sum to %d, want %d", sum, budget)
	}
}

func TestPlanValidation(t *testing.T) {
	pair, trainPos, candidates := fixture(t)
	base := newBase(t, pair)
	if _, err := buildPlan(nil, trainPos, candidates, 0, Config{K: 2}); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := buildPlan(base, nil, candidates, 0, Config{K: 2}); err == nil {
		t.Error("empty training anchors accepted")
	}
	if _, err := buildPlan(base, trainPos, candidates, -1, Config{K: 2}); err == nil {
		t.Error("negative budget accepted")
	}
	// K above the anchor count clamps rather than failing.
	plan, err := buildPlan(base, trainPos[:2], candidates, 0, Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Parts) > 2 {
		t.Errorf("K not clamped to anchor count: %d parts", len(plan.Parts))
	}
}

// K>1 output must respect the global one-to-one constraint, label every
// candidate, and spend no more than the configured budget.
func TestAlignMultiPartitionOneToOne(t *testing.T) {
	pair, trainPos, candidates := fixture(t)
	base, err := metadiag.NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 12
	plan, err := buildPlan(base, trainPos, candidates, budget, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &active.CountingOracle{Inner: active.NewTruthOracle(pair)}
	res, err := Align(base, plan, TrainOptions{
		Features: schema.StandardLibrary().All(),
		Core:     core.Config{Budget: budget, Strategy: active.Conflict{}, Seed: 7},
	}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	seenI, seenJ := map[int]bool{}, map[int]bool{}
	for _, a := range res.PredictedAnchors() {
		if seenI[a.I] || seenJ[a.J] {
			t.Fatalf("one-to-one violated at (%d,%d)", a.I, a.J)
		}
		seenI[a.I] = true
		seenJ[a.J] = true
	}
	// Training anchors always survive reconciliation (they are ground
	// truth, queued at +Inf).
	for _, a := range trainPos {
		if lab, ok := res.Label(a.I, a.J); !ok || lab != 1 {
			t.Errorf("training anchor (%d,%d) lost: label %v ok=%v", a.I, a.J, lab, ok)
		}
	}
	// Every candidate is labeled.
	for _, c := range candidates {
		if _, ok := res.Label(c.I, c.J); !ok {
			t.Errorf("candidate (%d,%d) unlabeled", c.I, c.J)
		}
	}
	if oracle.Queries() > budget {
		t.Errorf("spent %d queries over budget %d", oracle.Queries(), budget)
	}
	if got := res.QueryCount(); got != oracle.Queries() {
		t.Errorf("QueryCount %d ≠ oracle count %d", got, oracle.Queries())
	}
	if len(res.Reports) != len(plan.Parts) {
		t.Errorf("%d reports for %d parts", len(res.Reports), len(plan.Parts))
	}
}

// Concurrent partition pipelines share the base counter's attribute-only
// cache; run a K=4 alignment twice to exercise the forked concurrent
// path under -race.
func TestAlignConcurrentForksRace(t *testing.T) {
	pair, trainPos, candidates := fixture(t)
	base, err := metadiag.NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		plan, err := buildPlan(base, trainPos, candidates, 0, Config{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Align(base, plan, TrainOptions{
			Features: schema.StandardLibrary().All(),
			Core:     core.Config{Seed: 3},
			Workers:  4,
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// Regression: clusterAnchors drops empty groups, so it can return fewer
// groups than requested — training anchors sharing one network-1
// endpoint give farthest-point seeding no distinct seeds to pick.
// Planning used to index d1/d2/parts by the requested K and panic.
func TestPlanDegenerateAnchorEndpoints(t *testing.T) {
	pair, _, candidates := fixture(t)
	// Five anchors, all incident to network-1 user 0: one seed location.
	degenerate := []hetnet.Anchor{{I: 0, J: 0}, {I: 0, J: 1}, {I: 0, J: 2}, {I: 0, J: 3}, {I: 0, J: 4}}
	plan, err := buildPlan(newBase(t, pair), degenerate, candidates, 10, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range plan.Parts {
		if len(p.TrainPos) == 0 {
			t.Errorf("partition %d has no training anchors", p.Index)
		}
		total += p.Budget
	}
	if total != 10 {
		t.Errorf("budgets sum to %d, want 10", total)
	}
	seen := make(map[int64]bool)
	for _, p := range plan.Parts {
		for _, c := range p.Candidates {
			seen[hetnet.Key(c.I, c.J)] = true
		}
	}
	if len(seen) != len(candidates) {
		t.Errorf("plan covers %d distinct candidates, want %d", len(seen), len(candidates))
	}
}

// Regression: a NaN-scored positive vote must not make the merge
// depend on vote arrival order — shards commit in nondeterministic
// completion order under the distributed coordinator, and NaN compares
// false against everything, so an unguarded max would keep whichever
// vote arrived first. The NaN vote still counts as a positive, pinned
// deterministically below every real score.
func TestMergerNaNScoreOrderIndependent(t *testing.T) {
	link := hetnet.Anchor{I: 2, J: 3}
	votes := []Vote{
		{Link: link, Label: 1, Score: math.NaN()},
		{Link: link, Label: 1, Score: 0.8},
		// A competing link forces the reconciler to order by score.
		{Link: hetnet.Anchor{I: 2, J: 4}, Label: 1, Score: 0.5},
	}
	var ref *Result
	for shift := range votes {
		m := NewMerger()
		for k := range votes {
			m.Add(votes[(k+shift)%len(votes)])
		}
		res := m.Finish()
		if s, _ := res.Score(link.I, link.J); s != 0.8 {
			t.Errorf("shift %d: best score %v, want 0.8", shift, s)
		}
		if ref == nil {
			ref = res
			continue
		}
		got, want := res.PredictedAnchors(), ref.PredictedAnchors()
		if len(got) != len(want) {
			t.Fatalf("shift %d: %d anchors vs %d in reference order", shift, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shift %d: anchor %d = %v, reference %v", shift, i, got[i], want[i])
			}
		}
	}
}

// Regression: on an overlapped candidate, one partition's INFERRED
// positive must not overrule another partition's oracle-answered
// negative — the system paid a query for that 0. Queried positives and
// training anchors still outrank everything.
func TestMergeVotesOracleNegativeWins(t *testing.T) {
	cand := hetnet.Anchor{I: 5, J: 7}
	votes := []Vote{
		// Partition A inferred the candidate positive with a high score.
		{Link: cand, Label: 1, Score: 0.93},
		// Partition B queried it; the oracle said no.
		{Link: cand, Label: 0, Score: 0.88, Queried: true},
		// An unrelated inferred positive must survive.
		{Link: hetnet.Anchor{I: 1, J: 1}, Label: 1, Score: 0.7},
		// A queried positive enters at +Inf.
		{Link: hetnet.Anchor{I: 2, J: 2}, Label: 1, Score: 0.1, Queried: true},
		// A training anchor enters at +Inf.
		{Link: hetnet.Anchor{I: 3, J: 3}, Label: 1, Score: 0.2, Fixed: true},
	}
	// The merge must be order-independent: every rotation of the vote
	// stream — in particular the oracle NO arriving before AND after the
	// conflicting inferred positive — merges identically.
	for shift := range votes {
		m := NewMerger()
		for k := range votes {
			m.Add(votes[(k+shift)%len(votes)])
		}
		res := m.Finish()
		if lab, _ := res.Label(cand.I, cand.J); lab != 0 {
			t.Errorf("shift %d: oracle-refuted candidate merged with label %v, want 0", shift, lab)
		}
		if !res.WasQueried(cand.I, cand.J) {
			t.Errorf("shift %d: queried flag lost in merge", shift)
		}
		anchors := res.PredictedAnchors()
		want := []hetnet.Anchor{{I: 1, J: 1}, {I: 2, J: 2}, {I: 3, J: 3}}
		if len(anchors) != len(want) {
			t.Fatalf("shift %d: merged anchors %v, want %v", shift, anchors, want)
		}
		for i := range want {
			if anchors[i] != want[i] {
				t.Fatalf("shift %d: merged anchors %v, want %v", shift, anchors, want)
			}
		}
	}
}

// planFingerprint hashes everything a Plan decides: every part's index,
// training anchors, candidates in order and budget, plus the overlap
// count and the similarity-seeded flag.
func planFingerprint(p *Plan) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putAnchors := func(as []hetnet.Anchor) {
		put(len(as))
		for _, a := range as {
			put(a.I)
			put(a.J)
		}
	}
	put(len(p.Parts))
	for _, part := range p.Parts {
		put(part.Index)
		putAnchors(part.TrainPos)
		putAnchors(part.Candidates)
		put(part.Budget)
	}
	put(p.Overlapped)
	if p.SimilaritySeeded {
		put(1)
	} else {
		put(0)
	}
	return h.Sum64()
}

// TestPlanFingerprintStable pins Plan output bit for bit across kernel
// changes underneath the planner's coarse-similarity seed. The constants
// were captured on the commit before the planner moved from
// MatMulParallel(...).TopKPerRow(...) to the fused sparse.MatMulTopK.
func TestPlanFingerprintStable(t *testing.T) {
	want := map[[2]int64]uint64{
		{7, 2}:  0xaf2e1fe972e51ce0,
		{7, 4}:  0x7c0f82c6481b16cc,
		{11, 2}: 0x528d5db702e7b6f1,
		{11, 4}: 0xefb556fc2fe1d9bb,
	}
	for _, seed := range []int64{7, 11} {
		cfg := datagen.Small()
		cfg.Seed = seed
		pair, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := len(pair.Anchors) / 10
		trainPos, testPos := pair.Anchors[:n], pair.Anchors[n:]
		neg, err := eval.SampleNegatives(pair, 10*len(pair.Anchors), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		candidates := append(append([]hetnet.Anchor{}, testPos...), neg...)
		pl, err := NewPlanner(newBase(t, pair))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 4} {
			plan, err := pl.Plan(trainPos, candidates, 100, Config{K: k})
			if err != nil {
				t.Fatal(err)
			}
			if !plan.SimilaritySeeded || len(plan.Parts) != k {
				t.Fatalf("seed %d K=%d: fixture lost its signal (seeded=%v, parts=%d)", seed, k, plan.SimilaritySeeded, len(plan.Parts))
			}
			if got := planFingerprint(plan); got != want[[2]int64{seed, int64(k)}] {
				t.Errorf("seed %d K=%d: plan fingerprint %#x, want %#x", seed, k, got, want[[2]int64{seed, int64(k)}])
			}
		}
	}
}

// TestSimilarityMatchesUnfusedPropagation recomputes the planner's
// coarse similarity the long way — full products, then TopKPerRow — and
// requires the fused MatMulTopK propagation to equal it bit for bit.
func TestSimilarityMatchesUnfusedPropagation(t *testing.T) {
	pair, err := datagen.Generate(datagen.Small())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlanner(newBase(t, pair))
	if err != nil {
		t.Fatal(err)
	}
	if pl.prior == nil {
		t.Fatal("fixture carries no attribute prior")
	}
	want := pl.prior
	for it := 0; it < coarseIters; it++ {
		prop := sparse.MatMulParallel(pl.w1, want).TopKPerRow(coarseTopM)
		prop = sparse.MatMulParallel(prop, pl.w2.T()).TopKPerRow(coarseTopM)
		want = sparse.Add(prop.Scale(coarseAlpha), pl.prior.Scale(1-coarseAlpha)).TopKPerRow(coarseTopM)
		want = want.Scale(1 / want.Sum())
	}
	if got := pl.similarity(); !got.Equal(want) {
		t.Fatalf("fused similarity differs from the unfused propagation of %d rounds", coarseIters)
	}
}
