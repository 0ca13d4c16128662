package svm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/activeiter/activeiter/internal/linalg"
)

// dataset builds (x, y) with a trailing bias feature.
func dataset(points [][2]float64, labels []float64) (*linalg.Dense, []float64) {
	x := linalg.NewDense(len(points), 3)
	for i, p := range points {
		x.Set(i, 0, p[0])
		x.Set(i, 1, p[1])
		x.Set(i, 2, 1)
	}
	return x, labels
}

func TestTrainSeparable(t *testing.T) {
	// Positives in the upper-right, negatives lower-left: separable.
	x, y := dataset([][2]float64{
		{2, 2}, {3, 2}, {2.5, 3},
		{-2, -2}, {-3, -2}, {-2, -3},
	}, []float64{1, 1, 1, 0, 0, 0})
	m, err := Train(x, y, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	preds := predictRows(m, x)
	for i, p := range preds {
		if p != y[i] {
			t.Errorf("row %d: predicted %v, want %v", i, p, y[i])
		}
	}
}

func TestTrainKnownMaxMargin(t *testing.T) {
	// 1-D points at ±1 with bias: max margin separator is w=(1,0),
	// decision boundary at x=0.
	x := linalg.NewDense(2, 2)
	x.Set(0, 0, 1)
	x.Set(0, 1, 1)
	x.Set(1, 0, -1)
	x.Set(1, 1, 1)
	m, err := Train(x, []float64{1, 0}, Config{C: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Margin constraints: w·(1,1) ≥ 1 and w·(-1,1) ≤ -1 with minimal
	// ‖w‖ → w = (1, 0).
	if math.Abs(m.W[0]-1) > 1e-2 || math.Abs(m.W[1]) > 1e-2 {
		t.Errorf("w = %v, want ≈ [1 0]", m.W)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(linalg.NewDense(0, 0), nil, Config{}); err == nil {
		t.Error("empty training set should fail")
	}
	x := linalg.NewDense(2, 2)
	if _, err := Train(x, []float64{1}, Config{}); err == nil {
		t.Error("label length mismatch should fail")
	}
	if _, err := Train(x, []float64{1, 0.5}, Config{}); err == nil {
		t.Error("non-binary label should fail")
	}
}

func TestImbalanceCollapsesRecall(t *testing.T) {
	// The pathology the paper reports for SVM at high NP-ratio: with
	// massively imbalanced, overlapping classes, the unweighted SVM
	// predicts (almost) everything negative.
	rng := rand.New(rand.NewSource(7))
	n := 1000
	x := linalg.NewDense(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		if i < 10 { // 1% positives, weak signal
			x.Set(i, 0, 0.3+rng.NormFloat64())
			y[i] = 1
		} else {
			x.Set(i, 0, rng.NormFloat64())
			y[i] = 0
		}
		x.Set(i, 1, 1)
	}
	m, err := Train(x, y, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	positives := 0
	for _, p := range predictRows(m, x) {
		if p == 1 {
			positives++
		}
	}
	if positives > 3 {
		t.Errorf("unweighted SVM predicted %d positives on overlapping 1%% data, expected near-zero", positives)
	}
	// With heavy positive weighting it recovers some recall.
	mw, err := Train(x, y, Config{PosWeight: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for i, p := range predictRows(mw, x) {
		if p == 1 && y[i] == 1 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Error("weighted SVM should recover some positive predictions")
	}
}

func TestDualFeasibility(t *testing.T) {
	// KKT sanity on a small random problem: the learned w must satisfy
	// the representer form with bounded duals — verified indirectly via
	// hinge-objective comparison against perturbations of w.
	rng := rand.New(rand.NewSource(11))
	n, d := 60, 4
	x := linalg.NewDense(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d-1; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		x.Set(i, d-1, 1)
		if x.At(i, 0)+0.5*x.At(i, 1) > 0 {
			y[i] = 1
		}
	}
	cfg := Config{C: 1, Seed: 3, MaxEpochs: 2000, Tol: 1e-8}
	m, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj := func(w linalg.Vector) float64 {
		v := 0.5 * w.Dot(w)
		for i := 0; i < n; i++ {
			s := 2*y[i] - 1
			margin := 1 - s*w.Dot(x.RowView(i))
			if margin > 0 {
				v += cfg.C * margin
			}
		}
		return v
	}
	base := obj(m.W)
	for trial := 0; trial < 30; trial++ {
		pert := m.W.Clone()
		for j := range pert {
			pert[j] += rng.NormFloat64() * 0.05
		}
		if obj(pert) < base-1e-3 {
			t.Fatalf("perturbed w improves the primal objective: %v < %v (not optimal)", obj(pert), base)
		}
	}
}

func TestTrainDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, d := 40, 3
	x := linalg.NewDense(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		if rng.Float64() < 0.5 {
			y[i] = 1
		}
	}
	m1, err := Train(x, y, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(x, y, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !m1.W.EqualApprox(m2.W, 0) {
		t.Error("same seed should give identical models")
	}
}

func TestZeroRowsIgnored(t *testing.T) {
	x := linalg.NewDense(3, 2)
	x.Set(0, 0, 1)
	x.Set(0, 1, 1)
	x.Set(1, 0, -1)
	x.Set(1, 1, 1)
	// Row 2 is all zero.
	m, err := Train(x, []float64{1, 0, 0}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict(linalg.Vector{1, 1}) != 1 {
		t.Error("zero rows should not break training")
	}
}

// predictRows is the model's label for every row of x.
func predictRows(m *Model, x *linalg.Dense) []float64 {
	n, _ := x.Dims()
	out := make([]float64, n)
	for i := range out {
		out[i] = m.Predict(x.RowView(i))
	}
	return out
}
