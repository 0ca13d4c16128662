package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/matching"
)

func trainedResult(t *testing.T) *Result {
	t.Helper()
	p, _ := separableProblem(10, 3, 30)
	res, err := Train(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPredictorScoresNewLinks(t *testing.T) {
	res := trainedResult(t)
	pred, err := NewPredictorFromWeights(res.W, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// A positive-profile feature vector (feature=1, bias=1) must score
	// above a negative-profile one (feature=0, bias=1).
	pos := linalg.Vector{1, 1}
	neg := linalg.Vector{0, 1}
	if pred.Score(pos) <= pred.Score(neg) {
		t.Errorf("positive profile %v should outscore negative %v", pred.Score(pos), pred.Score(neg))
	}
	if pred.Predict(pos) != 1 {
		t.Errorf("positive profile predicted %v", pred.Predict(pos))
	}
	if pred.Predict(neg) != 0 {
		t.Errorf("negative profile predicted %v", pred.Predict(neg))
	}
}

func TestPredictorBatchConstraint(t *testing.T) {
	res := trainedResult(t)
	pred, err := NewPredictorFromWeights(res.W, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Three positive-profile candidates, two sharing left user 7.
	x := linalg.NewDense(3, 2)
	for r := 0; r < 3; r++ {
		x.Set(r, 0, 1)
		x.Set(r, 1, 1)
	}
	endpoints := [][2]int{{7, 1}, {7, 2}, {8, 3}}
	scores, labels, err := pred.PredictBatch(x, endpoints)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores = %v", scores)
	}
	if labels[0]+labels[1] != 1 {
		t.Errorf("conflicting candidates selected %v + %v, want exactly one", labels[0], labels[1])
	}
	if labels[2] != 1 {
		t.Errorf("independent candidate not selected")
	}
	// Without endpoints the constraint is skipped: all three positive.
	_, free, err := pred.PredictBatch(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if free[0]+free[1]+free[2] != 3 {
		t.Errorf("unconstrained labels = %v", free)
	}
}

func TestPredictorValidation(t *testing.T) {
	if _, err := NewPredictorFromWeights(nil, 0.5); err == nil {
		t.Error("empty weights should fail")
	}
	res := trainedResult(t)
	pred, err := NewPredictorFromWeights(res.W, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pred.PredictBatch(linalg.NewDense(2, 5), nil); err == nil {
		t.Error("dimension mismatch should fail")
	}
	x := linalg.NewDense(2, 2)
	if _, _, err := pred.PredictBatch(x, [][2]int{{0, 0}}); err == nil {
		t.Error("endpoint count mismatch should fail")
	}
}

func TestPredictorCustomThreshold(t *testing.T) {
	res := trainedResult(t)
	strict, err := NewPredictorFromWeights(res.W, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// With a near-1 threshold even positive profiles may be rejected;
	// the important property is monotonicity vs the default threshold.
	loose, err := NewPredictorFromWeights(res.W, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pos := linalg.Vector{1, 1}
	if strict.Predict(pos) == 1 && loose.Predict(pos) == 0 {
		t.Error("stricter threshold accepted what looser rejected")
	}
}

// PredictBatch's constrained labels are training's selection: over
// random rows — score ties that share an endpoint, ±Inf, NaN, scores
// at the threshold and duplicate links — the rows it labels 1 are
// exactly the rows matching.Greedy picks.
func TestPredictBatchPicksGreedys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := []float64{0.2, 0.5, 0.6, 0.6, 0.9, 0.9, math.Inf(1), math.Inf(-1), math.NaN()}
	pred, err := NewPredictorFromWeights([]float64{1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		x := linalg.NewDense(n, 1)
		endpoints := make([][2]int, n)
		cands := make([]matching.Candidate, n)
		for k := range endpoints {
			s := values[rng.Intn(len(values))]
			x.Set(k, 0, s)
			endpoints[k] = [2]int{rng.Intn(4), rng.Intn(4)}
			cands[k] = matching.Candidate{I: endpoints[k][0], J: endpoints[k][1], Score: s, Payload: k}
		}
		_, labels, err := pred.PredictBatch(x, endpoints)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for _, c := range matching.Greedy(cands, 0.5, nil) {
			want[c.Payload] = 1
		}
		if !slices.Equal(labels, want) {
			t.Fatalf("trial %d: rows %v, endpoints %v: labels %v, Greedy's %v", trial, x.Col(0), endpoints, labels, want)
		}
	}
}
