package experiments

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/oracle"
)

// oracleScenario is one labeler-pool configuration of the noise matrix;
// cfg materializes it at a given flip probability.
type oracleScenario struct {
	name string
	cfg  func(p float64, seed int64) oracle.Config
}

// oracleNoiseScenarios spans the pool shapes the matrix compares: a
// lone noisy labeler (the old ablation, now through the panel), pure
// replication at R=3 and R=5, and R=5 pools carrying an always-lying
// adversary or a two-member colluding bloc alongside the flippers.
func oracleNoiseScenarios() []oracleScenario {
	return []oracleScenario{
		{"single noisy R=1", func(p float64, seed int64) oracle.Config {
			return oracle.Config{Noisy: 1, FlipProb: p, Seed: seed}
		}},
		{"panel 3 noisy R=3", func(p float64, seed int64) oracle.Config {
			return oracle.Config{Noisy: 3, FlipProb: p, Seed: seed}
		}},
		{"panel 5 noisy R=5", func(p float64, seed int64) oracle.Config {
			return oracle.Config{Noisy: 5, FlipProb: p, Seed: seed}
		}},
		{"4 noisy + adversary R=5", func(p float64, seed int64) oracle.Config {
			return oracle.Config{Noisy: 4, Adversarial: 1, FlipProb: p, Seed: seed}
		}},
		{"3 noisy + 2 colluders R=5", func(p float64, seed int64) oracle.Config {
			return oracle.Config{Noisy: 3, Colluding: 2, FlipProb: p, Seed: seed}
		}},
	}
}

// oracleNoiseRates is the flip-probability axis of the matrix. The p=0
// rows are the property hook: with nothing to flip, every scenario's
// majority verdict equals ground truth, so their F1 must match the
// clean-oracle baseline exactly (CI asserts this).
var oracleNoiseRates = []float64{0, 0.1, 0.2, 0.3}

// RunOracleNoiseMatrix generalizes the oracle-noise ablation into the
// full unreliable-labeler matrix: for each labeler-pool scenario
// (replication factor, adversaries, colluders) and each flip
// probability p, train ActiveIter against a fresh labeler panel and
// report F1/TPR/FPR on the untouched test links plus the panel's
// ledger totals (one-to-one contradictions flagged, labelers
// distrusted) summed across folds.
func RunOracleNoiseMatrix(pre Preset) (*Table, error) {
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, err
	}
	budget := pr.maxBudget()
	train := core.Config{Budget: budget, Strategy: active.Conflict{}}
	// Variant 0 is the baseline — the perfect oracle the paper assumes, no
	// panel in between — followed by one variant per scenario × rate. A
	// fresh panel per fold: ledgers audit one training run.
	variants := []variant{{name: "clean", cfg: train}}
	scenarios := oracleNoiseScenarios()
	for _, sc := range scenarios {
		for _, p := range oracleNoiseRates {
			variants = append(variants, variant{name: fmt.Sprintf("p=%.1f", p), cfg: train, oracle: func() (active.Oracle, error) {
				return sc.cfg(p, pre.Seed).Build(pr.truth)
			}})
		}
	}
	outs, err := pr.runFixed(1100, variants)
	if err != nil {
		return nil, err
	}
	cells := func(folds []outcome) []string {
		f1 := make([]float64, len(folds))
		tpr := make([]float64, len(folds))
		fpr := make([]float64, len(folds))
		for i, o := range folds {
			f1[i], tpr[i], fpr[i] = o.conf.F1(), o.conf.TPR(), o.conf.FPR()
		}
		return []string{
			eval.Summarize(f1).String(),
			eval.Summarize(tpr).String(),
			eval.Summarize(fpr).String(),
		}
	}

	t := &Table{
		Title: fmt.Sprintf("Oracle-noise matrix — ActiveIter-%d vs labeler pools with flip probability p (θ=%d, γ=%.0f%%, preset %q)",
			budget, pre.FixedTheta, pre.FixedGamma*100, pre.Name),
		ColHeader: "flip prob",
		Cols:      []string{"F1", "TPR", "FPR", "contr", "distr"},
		Sections: []Section{{Name: "clean oracle", Rows: []TableRow{
			{Label: variants[0].name, Cells: append(cells(outs[0]), "-", "-")},
		}}},
	}
	vi := 1
	for _, sc := range scenarios {
		sec := Section{Name: sc.name}
		for range oracleNoiseRates {
			contradictions, distrusted := 0, 0
			for _, o := range outs[vi] {
				rep := o.oracle.(*oracle.Panel).Report()
				contradictions += rep.Contradictions
				distrusted += len(rep.Distrusted)
			}
			sec.Rows = append(sec.Rows, TableRow{
				Label: variants[vi].name,
				Cells: append(cells(outs[vi]), fmt.Sprint(contradictions), fmt.Sprint(distrusted)),
			})
			vi++
		}
		t.Sections = append(t.Sections, sec)
	}
	return t, nil
}
