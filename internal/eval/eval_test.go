package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
)

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 6, FP: 2, TN: 90, FN: 2}
	if got := c.Precision(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Precision = %v, want 0.75", got)
	}
	if got := c.Recall(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Recall = %v, want 0.75", got)
	}
	if got := c.F1(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("F1 = %v, want 0.75", got)
	}
	if got := c.Accuracy(); math.Abs(got-0.96) > 1e-12 {
		t.Errorf("Accuracy = %v, want 0.96", got)
	}
	if c.Total() != 100 {
		t.Errorf("Total = %d", c.Total())
	}
	if got := c.TPR(); got != c.Recall() {
		t.Errorf("TPR = %v, want Recall %v", got, c.Recall())
	}
	if got := c.FPR(); math.Abs(got-2.0/92.0) > 1e-12 {
		t.Errorf("FPR = %v, want 2/92", got)
	}
}

func TestRatesDegenerate(t *testing.T) {
	// No negatives at all: FPR must be 0, not NaN.
	c := Confusion{TP: 3, FN: 1}
	if got := c.FPR(); got != 0 {
		t.Errorf("FPR with no negatives = %v, want 0", got)
	}
	// No positives: TPR 0, FPR counts the false alarms.
	c = Confusion{FP: 1, TN: 3}
	if got := c.TPR(); got != 0 {
		t.Errorf("TPR with no positives = %v, want 0", got)
	}
	if got := c.FPR(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("FPR = %v, want 0.25", got)
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Error("empty confusion should yield zeros, not NaN")
	}
	// All negative predictions on all-negative truth: accuracy 1, rest 0.
	c = Confusion{TN: 2}
	if c.Accuracy() != 1 || c.F1() != 0 {
		t.Errorf("all-negative: acc=%v f1=%v", c.Accuracy(), c.F1())
	}
}

func TestConfusionAdd(t *testing.T) {
	tests := []struct {
		name        string
		pred, truth float64
		want        Confusion
	}{
		{"tp", 1, 1, Confusion{TP: 1}},
		{"fp", 1, 0, Confusion{FP: 1}},
		{"tn", 0, 0, Confusion{TN: 1}},
		{"fn", 0, 1, Confusion{FN: 1}},
	}
	var all Confusion
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var c Confusion
			c.Add(tc.pred, tc.truth)
			if c != tc.want {
				t.Errorf("Add(%v, %v) = %+v, want %+v", tc.pred, tc.truth, c, tc.want)
			}
		})
		all.Add(tc.pred, tc.truth)
	}
	if want := (Confusion{TP: 1, FP: 1, TN: 1, FN: 1}); all != want {
		t.Errorf("accumulated %+v, want %+v", all, want)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if math.Abs(s.Mean-2.5) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if math.Abs(s.Std-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("Std = %v", s.Std)
	}
	if s.N != 4 {
		t.Errorf("N = %d", s.N)
	}
	if got := Summarize(nil); got.Mean != 0 || got.Std != 0 {
		t.Error("empty Summarize should be zero")
	}
	if str := s.String(); !strings.Contains(str, "±") {
		t.Errorf("String = %q", str)
	}
}

func TestSummarizeConfusionsAndGet(t *testing.T) {
	folds := []Confusion{
		{TP: 1, FN: 1},        // recall 0.5, precision 1
		{TP: 1, FN: 1, FP: 1}, // recall 0.5, precision 0.5
	}
	ms := SummarizeConfusions(folds)
	if math.Abs(ms.Recall.Mean-0.5) > 1e-12 {
		t.Errorf("recall mean = %v", ms.Recall.Mean)
	}
	if math.Abs(ms.Precision.Mean-0.75) > 1e-12 {
		t.Errorf("precision mean = %v", ms.Precision.Mean)
	}
	for _, m := range AllMetrics {
		_ = ms.Get(m) // must not panic
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown metric should panic")
		}
	}()
	ms.Get("bogus")
}

func smallPair(t *testing.T, n1, n2 int, anchors [][2]int) *hetnet.AlignedPair {
	t.Helper()
	g1 := hetnet.NewSocialNetwork("a")
	g2 := hetnet.NewSocialNetwork("b")
	for i := 0; i < n1; i++ {
		g1.AddNode(hetnet.User, string(rune('a'+i)))
	}
	for j := 0; j < n2; j++ {
		g2.AddNode(hetnet.User, string(rune('a'+j)))
	}
	p := hetnet.NewAlignedPair(g1, g2)
	for _, a := range anchors {
		if err := p.AddAnchor(a[0], a[1]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestSampleNegatives(t *testing.T) {
	pair := smallPair(t, 10, 10, [][2]int{{0, 0}, {1, 1}})
	rng := rand.New(rand.NewSource(1))
	neg, err := SampleNegatives(pair, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(neg) != 50 {
		t.Fatalf("sampled %d", len(neg))
	}
	truth := pair.AnchorSet()
	seen := make(map[int64]bool)
	for _, a := range neg {
		k := hetnet.Key(a.I, a.J)
		if truth[k] {
			t.Fatal("sampled a true anchor as negative")
		}
		if seen[k] {
			t.Fatal("sampled a duplicate negative")
		}
		seen[k] = true
	}
}

func TestSampleNegativesCapacity(t *testing.T) {
	pair := smallPair(t, 2, 2, [][2]int{{0, 0}})
	rng := rand.New(rand.NewSource(1))
	// Capacity is 4-1 = 3.
	if _, err := SampleNegatives(pair, 4, rng); err == nil {
		t.Error("oversampling should fail")
	}
	neg, err := SampleNegatives(pair, 3, rng)
	if err != nil || len(neg) != 3 {
		t.Errorf("exact-capacity sampling failed: %v, %d", err, len(neg))
	}
}

func makeAnchors(n, offset int) []hetnet.Anchor {
	out := make([]hetnet.Anchor, n)
	for i := range out {
		out[i] = hetnet.Anchor{I: offset + i, J: offset + i}
	}
	return out
}

func TestKFoldSplitsProtocol(t *testing.T) {
	pos := makeAnchors(20, 0)
	neg := makeAnchors(100, 1000)
	rng := rand.New(rand.NewSource(2))
	splits, err := KFoldSplits(pos, neg, 10, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 10 {
		t.Fatalf("splits = %d", len(splits))
	}
	for _, s := range splits {
		if len(s.TrainPos) != 2 {
			t.Errorf("fold %d: train positives = %d, want 2", s.Fold, len(s.TrainPos))
		}
		if len(s.TrainNeg) != 10 {
			t.Errorf("fold %d: train negatives = %d, want 10", s.Fold, len(s.TrainNeg))
		}
		if len(s.TestPos) != 18 || len(s.TestNeg) != 90 {
			t.Errorf("fold %d: test %d/%d", s.Fold, len(s.TestPos), len(s.TestNeg))
		}
		// Train and test must be disjoint.
		inTrain := make(map[int64]bool)
		for _, a := range append(append([]hetnet.Anchor{}, s.TrainPos...), s.TrainNeg...) {
			inTrain[hetnet.Key(a.I, a.J)] = true
		}
		for _, a := range append(append([]hetnet.Anchor{}, s.TestPos...), s.TestNeg...) {
			if inTrain[hetnet.Key(a.I, a.J)] {
				t.Fatalf("fold %d: train/test overlap", s.Fold)
			}
		}
	}
}

func TestKFoldSampleRatio(t *testing.T) {
	pos := makeAnchors(100, 0)
	neg := makeAnchors(100, 1000)
	rng := rand.New(rand.NewSource(3))
	splits, err := KFoldSplits(pos, neg, 10, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(splits[0].TrainPos); got != 5 {
		t.Errorf("γ=0.5 train positives = %d, want 5", got)
	}
	// γ does not touch the test pools.
	if got := len(splits[0].TestPos); got != 90 {
		t.Errorf("test positives = %d, want 90", got)
	}
}

func TestKFoldValidation(t *testing.T) {
	pos := makeAnchors(20, 0)
	neg := makeAnchors(20, 100)
	rng := rand.New(rand.NewSource(4))
	if _, err := KFoldSplits(pos, neg, 1, 1, rng); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := KFoldSplits(makeAnchors(3, 0), neg, 10, 1, rng); err == nil {
		t.Error("too few positives should fail")
	}
	if _, err := KFoldSplits(pos, neg, 10, 0, rng); err == nil {
		t.Error("γ=0 should fail")
	}
	if _, err := KFoldSplits(pos, neg, 10, 1.5, rng); err == nil {
		t.Error("γ>1 should fail")
	}
}

func TestKFoldDeterministicGivenSeed(t *testing.T) {
	pos := makeAnchors(20, 0)
	neg := makeAnchors(40, 100)
	s1, err := KFoldSplits(pos, neg, 5, 0.6, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := KFoldSplits(pos, neg, 5, 0.6, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for f := range s1 {
		if len(s1[f].TrainPos) != len(s2[f].TrainPos) {
			t.Fatal("nondeterministic split sizes")
		}
		for i := range s1[f].TrainPos {
			if s1[f].TrainPos[i] != s2[f].TrainPos[i] {
				t.Fatal("nondeterministic split contents")
			}
		}
	}
}
