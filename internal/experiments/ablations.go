package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/schema"
)

// runFixed evaluates the variants on the preset's fixed (θ, γ) cell, the
// point every ablation is taken at; out[v] holds variant v's folds.
func (pr *protocol) runFixed(salt int, variants []variant) ([][]outcome, error) {
	outs, err := pr.run(cell{theta: pr.pre.FixedTheta, gamma: pr.pre.FixedGamma, salt: salt, variants: variants})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RunFeatureAblation measures Iter-MPMD with growing feature families:
// paths only, +Ψ^f², +Ψ^a², full. It quantifies each family's
// contribution, generalizing the SVM-MP vs SVM-MPMD comparison to the PU
// model (docs/EXPERIMENTS.md, ablation-features).
func RunFeatureAblation(pre Preset) (*Table, error) {
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, err
	}
	lib := schema.StandardLibrary()
	paths := lib.PathsOnly()
	var f2, a2 []schema.Named
	for _, d := range lib.Diagrams {
		switch {
		case strings.HasPrefix(d.ID, "PSI_F2["):
			f2 = append(f2, d)
		case strings.HasPrefix(d.ID, "PSI_A2["):
			a2 = append(a2, d)
		}
	}
	variants := []variant{
		{name: "paths only (MP)", feats: paths},
		{name: "+ Ψ^f²", feats: append(append([]schema.Named{}, paths...), f2...)},
		{name: "+ Ψ^a²", feats: append(append([]schema.Named{}, paths...), a2...)},
		{name: "+ Ψ^f² + Ψ^a²", feats: append(append(append([]schema.Named{}, paths...), f2...), a2...)},
		{name: "full (MPMD)", feats: lib.All()},
	}
	outs, err := pr.runFixed(800, variants)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     fmt.Sprintf("Feature ablation — Iter-MPMD with growing diagram families (θ=%d, γ=%.0f%%, preset %q)", pre.FixedTheta, pre.FixedGamma*100, pre.Name),
		ColHeader: "features",
		Cols:      []string{"F1", "Precision", "Recall", "Accuracy", "dim"},
	}
	sec := Section{Name: "Iter-MPMD"}
	for vi, v := range variants {
		sec.Rows = append(sec.Rows, TableRow{Label: v.name, Cells: append(
			metricCells(summarize(outs[vi]), eval.AllMetrics...), fmt.Sprint(len(v.feats)+1))})
	}
	t.Sections = []Section{sec}
	return t, nil
}

// RunQueryAblation compares query strategies at a fixed budget: the
// paper's conflict strategy, uncertainty sampling, and random, all else
// equal (docs/EXPERIMENTS.md, ablation-query).
func RunQueryAblation(pre Preset) (*Table, error) {
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, err
	}
	budget := pr.maxBudget()
	var variants []variant
	for _, s := range []active.Strategy{active.Conflict{}, active.Uncertainty{}, active.Random{}} {
		variants = append(variants, variant{name: s.Name(), cfg: core.Config{Budget: budget, Strategy: s}})
	}
	outs, err := pr.runFixed(sweepSalt(pre.FixedGamma), variants)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     fmt.Sprintf("Query-strategy ablation — ActiveIter with budget %d (θ=%d, γ=%.0f%%, preset %q)", budget, pre.FixedTheta, pre.FixedGamma*100, pre.Name),
		ColHeader: "strategy",
		Cols:      []string{"F1", "Precision", "Recall", "Accuracy"},
	}
	sec := Section{Name: fmt.Sprintf("ActiveIter-%d", budget)}
	for vi, v := range variants {
		sec.Rows = append(sec.Rows, TableRow{Label: v.name, Cells: metricCells(summarize(outs[vi]), eval.AllMetrics...)})
	}
	t.Sections = []Section{sec}
	return t, nil
}

// RunMatchingAblation compares greedy ½-approximation selection against
// the exact Hungarian optimum inside Iter-MPMD: alignment quality and
// training time (docs/EXPERIMENTS.md, ablation-matching).
func RunMatchingAblation(pre Preset) (*Table, error) {
	pre.Workers = 1 // a timed run has the machine to itself
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, err
	}
	variants := []variant{
		{name: "greedy (paper)", trace: true},
		{name: "hungarian (exact)", trace: true, cfg: core.Config{ExactSelection: true}},
	}
	outs, err := pr.runFixed(900, variants)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     fmt.Sprintf("Matching ablation — greedy vs Hungarian selection in Iter-MPMD (θ=%d, γ=%.0f%%, preset %q)", pre.FixedTheta, pre.FixedGamma*100, pre.Name),
		ColHeader: "selection",
		Cols:      []string{"F1", "Precision", "Recall", "time/fold"},
	}
	sec := Section{Name: "Iter-MPMD"}
	for vi, v := range variants {
		var total time.Duration
		for _, o := range outs[vi] {
			total += o.elapsed
		}
		sec.Rows = append(sec.Rows, TableRow{Label: v.name, Cells: append(
			metricCells(summarize(outs[vi]), eval.MetricF1, eval.MetricPrecision, eval.MetricRecall),
			fmt.Sprintf("%.0fms", float64(total.Microseconds())/1000/float64(len(outs[vi]))))})
	}
	t.Sections = []Section{sec}
	return t, nil
}
