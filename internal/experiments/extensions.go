package experiments

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/schema"
)

// RunOracleNoiseAblation measures ActiveIter's robustness to labeler
// error: the oracle flips each answer with probability p. The paper
// assumes a perfect oracle; this quantifies how fast the active-learning
// advantage decays when humans err.
func RunOracleNoiseAblation(pre Preset) (*Table, error) {
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, err
	}
	budget := pr.maxBudget()
	var variants []variant
	for _, p := range []float64{0, 0.1, 0.3} {
		v := variant{name: fmt.Sprintf("p=%.1f", p), cfg: core.Config{Budget: budget, Strategy: active.Conflict{}}}
		if p > 0 {
			v.oracle = func() (active.Oracle, error) {
				return &active.NoisyOracle{Inner: pr.truth, FlipProb: p, Seed: pre.Seed}, nil
			}
		}
		variants = append(variants, v)
	}
	outs, err := pr.runFixed(1100, variants)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Oracle-noise ablation — ActiveIter-%d with flip probability p (θ=%d, γ=%.0f%%, preset %q)",
			budget, pre.FixedTheta, pre.FixedGamma*100, pre.Name),
		ColHeader: "flip prob",
		Cols:      []string{"F1", "Precision", "Recall"},
	}
	sec := Section{Name: fmt.Sprintf("ActiveIter-%d", budget)}
	for vi, v := range variants {
		sec.Rows = append(sec.Rows, TableRow{Label: v.name, Cells: metricCells(summarize(outs[vi]), eval.MetricF1, eval.MetricPrecision, eval.MetricRecall)})
	}
	t.Sections = []Section{sec}
	return t, nil
}

// RunWordFeatureAblation measures whether the word attribute — present
// in the paper's schema but unused in its evaluation — adds signal: the
// standard 31-feature library vs the 58-feature extended library on a
// dataset generated with word activity.
func RunWordFeatureAblation(pre Preset) (*Table, error) {
	if pre.Data.Words == 0 {
		pre.Data.Words = 120
		pre.Data.WordsPerPost = 2
	}
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, err
	}
	variants := []variant{
		{name: "standard (31)", feats: schema.StandardLibrary().All()},
		{name: "extended +words (58)", feats: schema.ExtendedLibrary().All()},
	}
	outs, err := pr.runFixed(1200, variants)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Word-feature ablation — Iter-MPMD, standard vs extended library (θ=%d, γ=%.0f%%, preset %q + words)",
			pre.FixedTheta, pre.FixedGamma*100, pre.Name),
		ColHeader: "library",
		Cols:      []string{"F1", "Precision", "Recall", "dim"},
	}
	sec := Section{Name: "Iter-MPMD"}
	for vi, v := range variants {
		sec.Rows = append(sec.Rows, TableRow{Label: v.name, Cells: append(
			metricCells(summarize(outs[vi]), eval.MetricF1, eval.MetricPrecision, eval.MetricRecall),
			fmt.Sprint(len(v.feats)+1))})
	}
	t.Sections = []Section{sec}
	return t, nil
}

// RunStability re-runs the Table III fixed cell across several dataset
// seeds, quantifying how robust the method ordering is to the generated
// world — a reproduction-quality check absent from the paper.
func RunStability(pre Preset, seeds int) (*Table, error) {
	if seeds < 2 {
		seeds = 3
	}
	t := &Table{
		Title: fmt.Sprintf("Stability — F1 across %d dataset seeds (θ=%d, γ=%.0f%%, preset %q)",
			seeds, pre.FixedTheta, pre.FixedGamma*100, pre.Name),
		ColHeader: "method",
	}
	results := make([][]eval.MetricSet, seeds)
	for s := 0; s < seeds; s++ {
		world := pre
		world.Data.Seed += int64(s) * 101
		res, err := sweep(world, [][2]float64{{float64(pre.FixedTheta), pre.FixedGamma}})
		if err != nil {
			return nil, err
		}
		results[s] = res[0]
		t.Cols = append(t.Cols, fmt.Sprintf("seed+%d", s*101))
	}
	sec := Section{Name: "F1"}
	for mi, m := range StandardMethods() {
		row := TableRow{Label: m.Name}
		for s := 0; s < seeds; s++ {
			row.Cells = append(row.Cells, results[s][mi].F1.String())
		}
		sec.Rows = append(sec.Rows, row)
	}
	t.Sections = []Section{sec}
	return t, nil
}
