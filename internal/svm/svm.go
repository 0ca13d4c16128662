// Package svm implements a linear support vector machine trained by dual
// coordinate descent (Hsieh et al., ICML 2008 — the LIBLINEAR algorithm),
// used by the paper's supervised baselines SVM-MP and SVM-MPMD.
//
// The primal problem is
//
//	min_w  ½‖w‖² + C Σᵢ cᵢ · max(0, 1 − yᵢ·w·xᵢ)
//
// with yᵢ ∈ {−1,+1} and optional per-instance cost multipliers cᵢ (class
// weighting). The bias is absorbed into w via the caller's trailing
// constant feature, matching the feature layout produced by
// metadiag.Extractor.
package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/activeiter/activeiter/internal/linalg"
)

// Config controls training.
type Config struct {
	// C is the misclassification cost. Defaults to 1 when zero.
	C float64
	// PosWeight multiplies C for positive instances; 1 (default) is the
	// unweighted SVM the paper's baselines use, which is what makes their
	// recall collapse under extreme class imbalance (Table III, θ ≥ 25).
	PosWeight float64
	// Tol is the projected-gradient stopping tolerance. Defaults to 1e-4.
	Tol float64
	// MaxEpochs caps the number of passes over the data. Defaults to 200.
	MaxEpochs int
	// Seed drives the per-epoch coordinate shuffling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.C <= 0 {
		c.C = 1
	}
	if c.PosWeight <= 0 {
		c.PosWeight = 1
	}
	if c.Tol <= 0 {
		c.Tol = 1e-4
	}
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = 200
	}
	return c
}

// Model is a trained linear SVM.
type Model struct {
	// W is the weight vector, one entry per feature (bias included if the
	// design matrix carried a constant feature).
	W linalg.Vector
	// Epochs is how many passes training used before convergence.
	Epochs int
}

// ErrNoData is returned when the training set is empty.
var ErrNoData = errors.New("svm: empty training set")

// Train fits a linear SVM on design matrix x (n×d) and labels y with
// yᵢ ∈ {0, 1} (converted internally to ±1).
func Train(x *linalg.Dense, y []float64, cfg Config) (*Model, error) {
	n, d := x.Dims()
	if n == 0 || d == 0 {
		return nil, ErrNoData
	}
	if len(y) != n {
		return nil, fmt.Errorf("svm: %d labels for %d rows", len(y), n)
	}
	cfg = cfg.withDefaults()

	sign := make([]float64, n)
	cost := make([]float64, n)
	for i, v := range y {
		switch v {
		case 1:
			sign[i] = 1
			cost[i] = cfg.C * cfg.PosWeight
		case 0:
			sign[i] = -1
			cost[i] = cfg.C
		default:
			return nil, fmt.Errorf("svm: label %v at row %d not in {0,1}", v, i)
		}
	}

	// Q_ii = xᵢ·xᵢ (for L1-loss dual, no diagonal shift).
	qd := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.RowView(i)
		qd[i] = row.Dot(row)
	}

	alpha := make([]float64, n)
	w := make(linalg.Vector, d)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	epochs := 0
	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		epochs = epoch + 1
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		maxPG := 0.0
		for _, i := range order {
			if qd[i] == 0 {
				continue // zero row: gradient fixed, no update possible
			}
			xi := x.RowView(i)
			g := sign[i]*w.Dot(xi) - 1
			// Projected gradient respecting 0 ≤ α ≤ cost.
			pg := g
			if alpha[i] == 0 && g > 0 {
				pg = 0
			} else if alpha[i] == cost[i] && g < 0 {
				pg = 0
			}
			if math.Abs(pg) > maxPG {
				maxPG = math.Abs(pg)
			}
			if pg == 0 {
				continue
			}
			old := alpha[i]
			na := old - g/qd[i]
			if na < 0 {
				na = 0
			} else if na > cost[i] {
				na = cost[i]
			}
			alpha[i] = na
			if delta := (na - old) * sign[i]; delta != 0 {
				w.AXPY(delta, xi)
			}
		}
		if maxPG < cfg.Tol {
			break
		}
	}
	return &Model{W: w, Epochs: epochs}, nil
}

// Decision returns the raw margin w·x.
func (m *Model) Decision(x linalg.Vector) float64 { return m.W.Dot(x) }

// Predict returns the class label in {0, 1}: 1 when the margin is
// positive.
func (m *Model) Predict(x linalg.Vector) float64 {
	if m.Decision(x) > 0 {
		return 1
	}
	return 0
}
