package core

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/matching"
)

// Predictor scores previously unseen candidate links with a trained
// weight vector — the inductive companion to the transductive training
// loop. Use it to rank new user pairs (e.g. users who joined after
// training) without re-running the optimization.
type Predictor struct {
	w         linalg.Vector
	threshold float64
}

// NewPredictorFromWeights builds a predictor straight from a persisted
// weight vector — the reload path of a serving process, which holds a
// snapshot's weights but no Result. threshold is the decision boundary
// as given: 0 and negative boundaries are real ones, not "unset".
func NewPredictorFromWeights(w []float64, threshold float64) (*Predictor, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("core: predictor needs a non-empty weight vector")
	}
	return &Predictor{w: linalg.Vector(w).Clone(), threshold: threshold}, nil
}

// Score returns the raw score ŷ = w·x of a feature vector. It panics on
// dimension mismatch.
func (p *Predictor) Score(x linalg.Vector) float64 { return p.w.Dot(x) }

// Predict returns 1 when x scores above the threshold, 0 otherwise. A
// single vector has no competitors, so the one-to-one constraint does
// not apply; PredictBatch enforces it over a candidate pool.
func (p *Predictor) Predict(x linalg.Vector) float64 {
	if p.Score(x) > p.threshold {
		return 1
	}
	return 0
}

// PredictBatch scores every row of x and returns both the raw scores and
// the labels. With endpoints (endpoints[k] = {i, j} of row k) the labels
// are training's one-to-one selection, matching.Greedy at the
// threshold: a row is 1 when its finite score is above the threshold and
// no higher-ranked pick holds either endpoint, ties ranked by (i, j),
// then by row. Pass nil endpoints to skip the constraint: every row
// scoring above the threshold is 1.
func (p *Predictor) PredictBatch(x *linalg.Dense, endpoints [][2]int) (scores []float64, labels []float64, err error) {
	n, d := x.Dims()
	if d != len(p.w) {
		return nil, nil, fmt.Errorf("core: predictor dimension %d, features %d", len(p.w), d)
	}
	if endpoints != nil && len(endpoints) != n {
		return nil, nil, fmt.Errorf("core: %d endpoint pairs for %d rows", len(endpoints), n)
	}
	scores = x.MulVec(p.w)
	labels = make([]float64, n)
	if endpoints == nil {
		for k, s := range scores {
			if s > p.threshold {
				labels[k] = 1
			}
		}
		return scores, labels, nil
	}
	cands := make([]matching.Candidate, n)
	for k, s := range scores {
		cands[k] = matching.Candidate{I: endpoints[k][0], J: endpoints[k][1], Score: s, Payload: k}
	}
	for _, c := range matching.Greedy(cands, p.threshold, nil) {
		labels[c.Payload] = 1
	}
	return scores, labels, nil
}
