package activeiter

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// testFixture generates a tiny pair and splits its anchors.
func testFixture(t *testing.T) (*AlignedPair, []Anchor, []Anchor, []Anchor) {
	t.Helper()
	pair, err := GenerateDataset(TinyDataset())
	if err != nil {
		t.Fatal(err)
	}
	anchors := pair.Anchors
	nTrain := len(anchors) / 4
	trainPos := anchors[:nTrain]
	testPos := anchors[nTrain:]
	rng := rand.New(rand.NewSource(11))
	neg, err := SampleNegatives(pair, 10*len(anchors), rng)
	if err != nil {
		t.Fatal(err)
	}
	return pair, trainPos, testPos, neg
}

func TestAlignEndToEnd(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	aligner, err := New(pair, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cands := append(append([]Anchor{}, testPos...), neg...)
	res, err := aligner.Align(trainPos, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := EvaluateAlignment(res, testPos, neg)
	if m.F1 <= 0.2 {
		t.Errorf("end-to-end F1 = %v, expected meaningful recovery on tiny data", m.F1)
	}
	if m.Precision < m.Recall {
		t.Logf("note: precision %v < recall %v (acceptable)", m.Precision, m.Recall)
	}
	// Predicted anchors obey one-to-one.
	seenI, seenJ := map[int]bool{}, map[int]bool{}
	for _, a := range res.PredictedAnchors() {
		if seenI[a.I] || seenJ[a.J] {
			t.Fatal("predicted anchors violate one-to-one")
		}
		seenI[a.I] = true
		seenJ[a.J] = true
	}
}

func TestAlignWithBudgetImprovesOrMatches(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	cands := append(append([]Anchor{}, testPos...), neg...)

	plain, err := New(pair, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resPlain, err := plain.Align(trainPos, cands, nil)
	if err != nil {
		t.Fatal(err)
	}

	activeAl, err := New(pair, Options{Budget: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resActive, err := activeAl.Align(trainPos, cands, NewTruthOracle(pair))
	if err != nil {
		t.Fatal(err)
	}
	if resActive.QueryCount() != 20 {
		t.Errorf("QueryCount = %d, want 20", resActive.QueryCount())
	}
	mPlain := EvaluateAlignment(resPlain, testPos, neg)
	mActive := EvaluateAlignment(resActive, testPos, neg)
	// On tiny data the improvement can be small, but active must not be
	// drastically worse.
	if mActive.F1 < mPlain.F1-0.1 {
		t.Errorf("active F1 %v much worse than plain %v", mActive.F1, mPlain.F1)
	}
}

func TestAlignValidation(t *testing.T) {
	pair, trainPos, testPos, _ := testFixture(t)
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil pair should fail")
	}
	if _, err := New(pair, Options{Strategy: "bogus"}); err == nil {
		t.Error("unknown strategy should fail")
	}
	aligner, err := New(pair, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aligner.Align(nil, testPos, nil); err == nil {
		t.Error("no training positives should fail")
	}
	if _, err := aligner.Align(trainPos, testPos, nil); err != nil {
		t.Errorf("valid align failed: %v", err)
	}
}

func TestAlignDeduplicatesCandidates(t *testing.T) {
	pair, trainPos, testPos, _ := testFixture(t)
	aligner, err := New(pair, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Candidates repeating training links and themselves must not break
	// the pool.
	cands := append(append([]Anchor{}, testPos...), testPos...)
	cands = append(cands, trainPos...)
	res, err := aligner.Align(trainPos, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Entries()); got != len(trainPos)+len(testPos) {
		t.Errorf("pool size %d, want %d", got, len(trainPos)+len(testPos))
	}
}

func TestFeatureNamesAndVector(t *testing.T) {
	pair, trainPos, _, _ := testFixture(t)
	aligner, err := New(pair, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := aligner.FeatureNames()
	if len(names) != 32 {
		t.Errorf("full feature names = %d, want 32", len(names))
	}
	pathsOnly, err := New(pair, Options{Features: PathFeatures})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pathsOnly.FeatureNames()); got != 7 {
		t.Errorf("path feature names = %d, want 7 (6 paths + bias)", got)
	}
	// Feature vectors are defined only after anchors are set; Align sets
	// them, but FeatureVector must work standalone too (uses pair's full
	// anchors initially).
	v, err := aligner.FeatureVector(trainPos[0].I, trainPos[0].J)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 32 || v[31] != 1 {
		t.Errorf("feature vector shape wrong: len=%d bias=%v", len(v), v[len(v)-1])
	}
}

func TestJSONRoundTripThroughFacade(t *testing.T) {
	pair, _, _, _ := testFixture(t)
	var buf bytes.Buffer
	if err := WriteAlignedJSON(pair, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAlignedJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Anchors) != len(pair.Anchors) {
		t.Error("anchors lost in round trip")
	}
}

func TestEvaluateAlignmentExcludesQueried(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	aligner, err := New(pair, Options{Budget: 10, Strategy: StrategyRandom, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cands := append(append([]Anchor{}, testPos...), neg...)
	res, err := aligner.Align(trainPos, cands, NewTruthOracle(pair))
	if err != nil {
		t.Fatal(err)
	}
	m := EvaluateAlignment(res, testPos, neg)
	total := m.TP + m.FP + m.TN + m.FN
	if total != len(testPos)+len(neg)-res.QueryCount() {
		// Queried links may include training-pool-only links; the bound
		// is: evaluated ≥ pools − queries.
		if total < len(testPos)+len(neg)-res.QueryCount() {
			t.Errorf("evaluated %d pairs, want ≥ %d", total, len(testPos)+len(neg)-res.QueryCount())
		}
	}
}

// TestConvergenceTraceExposed checks the trained model reaches the
// facade; core's TestConvergenceTraceReachesZero pins the Δy trace.
func TestConvergenceTraceExposed(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	aligner, err := New(pair, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cands := append(append([]Anchor{}, testPos...), neg...)
	res, err := aligner.Align(trainPos, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Weights()) != 32 {
		t.Errorf("weights = %d", len(res.Weights()))
	}
}

// Regression: New used to accept negative Budget/BatchSize/C silently —
// a negative Budget in particular skipped core's oracle validation
// (only Budget > 0 is checked there) and quietly disabled active
// learning. Invalid options must fail fast with a descriptive error.
func TestNewRejectsInvalidOptions(t *testing.T) {
	pair, _, _, _ := testFixture(t)
	bad := []Options{
		{Budget: -5},
		{BatchSize: -1},
		{C: -0.5},
		{C: math.NaN()},
		{C: math.Inf(1)},
		{Partitions: -2},
		{Threshold: Ptr(math.NaN())},
		{Threshold: Ptr(math.Inf(1))},
	}
	for _, opts := range bad {
		if _, err := New(pair, opts); err == nil {
			t.Errorf("New(%+v) accepted invalid options", opts)
		}
	}
	// The boundary values stay legal: zeros mean "default/disabled".
	if _, err := New(pair, Options{Budget: 0, BatchSize: 0, C: 0, Threshold: Ptr(0.0)}); err != nil {
		t.Errorf("zero-valued options rejected: %v", err)
	}
}
