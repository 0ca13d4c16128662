package experiments

import (
	"fmt"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/hetnet"
)

// RunTable2 regenerates Table II: the dataset statistics of the
// generated pair next to the paper's crawl figures for orientation.
func RunTable2(pre Preset) (*Table, error) {
	pair, err := datagen.Generate(pre.Data)
	if err != nil {
		return nil, err
	}
	s1, s2 := pair.G1.Stats(), pair.G2.Stats()
	row := func(label string, v1, v2 int) TableRow {
		return TableRow{Label: label, Cells: []string{fmt.Sprint(v1), fmt.Sprint(v2)}}
	}
	t := &Table{
		Title:     fmt.Sprintf("Table II — dataset statistics (preset %q; paper crawl: 5,223/5,392 users, 164,920/76,972 follow links, 3,282 anchors)", pre.Name),
		ColHeader: "property",
		Cols:      []string{"network-1", "network-2"},
		Sections: []Section{{
			Name: "counts",
			Rows: []TableRow{
				row("users", s1.NodeCount[hetnet.User], s2.NodeCount[hetnet.User]),
				row("posts", s1.NodeCount[hetnet.Post], s2.NodeCount[hetnet.Post]),
				row("locations", s1.NodeCount[hetnet.Location], s2.NodeCount[hetnet.Location]),
				row("timestamps", s1.NodeCount[hetnet.Timestamp], s2.NodeCount[hetnet.Timestamp]),
				row("follow links", s1.LinkCount[hetnet.Follow], s2.LinkCount[hetnet.Follow]),
				row("write links", s1.LinkCount[hetnet.Write], s2.LinkCount[hetnet.Write]),
				{Label: "anchor links", Cells: []string{fmt.Sprint(len(pair.Anchors)), ""}},
			},
		}},
	}
	return t, nil
}

// sweep evaluates the six standard methods over a list of (θ, γ) cells;
// out[c][m] is method m's metrics on cell c, in StandardMethods order.
func sweep(pre Preset, cells [][2]float64) ([][]eval.MetricSet, error) {
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, err
	}
	spec := make([]cell, len(cells))
	for i, c := range cells {
		spec[i] = cell{theta: int(c[0]), gamma: c[1], salt: sweepSalt(c[1]), variants: standardVariants()}
	}
	outs, err := pr.run(spec...)
	if err != nil {
		return nil, err
	}
	res := make([][]eval.MetricSet, len(outs))
	for c, perVariant := range outs {
		for _, folds := range perVariant {
			res[c] = append(res[c], summarize(folds))
		}
	}
	return res, nil
}

// buildMethodTable formats sweep results in the paper's layout: one
// section per metric, one row per method, one column per swept value.
func buildMethodTable(title, colHeader string, cols []string, cellResults [][]eval.MetricSet) *Table {
	t := &Table{Title: title, ColHeader: colHeader, Cols: cols}
	for _, metric := range eval.AllMetrics {
		sec := Section{Name: string(metric)}
		for mi, m := range StandardMethods() {
			row := TableRow{Label: m.Name}
			for _, cell := range cellResults {
				row.Cells = append(row.Cells, cell[mi].Get(metric).String())
			}
			sec.Rows = append(sec.Rows, row)
		}
		t.Sections = append(t.Sections, sec)
	}
	return t
}

// RunTable3 regenerates Table III: all methods across the NP-ratio sweep
// at fixed sample-ratio γ.
func RunTable3(pre Preset) (*Table, error) {
	cells := make([][2]float64, len(pre.ThetaValues))
	cols := make([]string, len(pre.ThetaValues))
	for i, th := range pre.ThetaValues {
		cells[i] = [2]float64{float64(th), pre.FixedGamma}
		cols[i] = fmt.Sprintf("θ=%d", th)
	}
	res, err := sweep(pre, cells)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Table III — performance vs NP-ratio (γ=%.0f%%, %d folds, preset %q)",
		pre.FixedGamma*100, pre.Folds, pre.Name)
	return buildMethodTable(title, "method", cols, res), nil
}

// RunTable4 regenerates Table IV: all methods across the sample-ratio
// sweep at fixed NP-ratio θ.
func RunTable4(pre Preset) (*Table, error) {
	cells := make([][2]float64, len(pre.GammaValues))
	cols := make([]string, len(pre.GammaValues))
	for i, g := range pre.GammaValues {
		cells[i] = [2]float64{float64(pre.FixedTheta), g}
		cols[i] = fmt.Sprintf("γ=%.0f%%", g*100)
	}
	res, err := sweep(pre, cells)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Table IV — performance vs sample-ratio (θ=%d, %d folds, preset %q)",
		pre.FixedTheta, pre.Folds, pre.Name)
	return buildMethodTable(title, "method", cols, res), nil
}

// thetaCells is one first-fold cell per NP-ratio at γ=100% — the shape of
// Figures 3 and 4, which trace single training runs.
func thetaCells(thetas []int, salt int, variants ...variant) []cell {
	cells := make([]cell, len(thetas))
	for i, theta := range thetas {
		cells[i] = cell{theta: theta, gamma: 1, salt: salt, firstFold: true, variants: variants}
	}
	return cells
}

// ConvergenceSeries is one Figure 3 line: Δy per internal iteration.
type ConvergenceSeries struct {
	Theta  int
	DeltaY []float64
}

// RunFig3 regenerates Figure 3: the convergence of the external
// iteration step (1) at γ=100% for several NP-ratios.
func RunFig3(pre Preset) ([]ConvergenceSeries, *Table, error) {
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, nil, err
	}
	thetas := fig3Thetas(pre)
	outs, err := pr.run(thetaCells(thetas, 100, variant{name: "Iter-MPMD", trace: true})...)
	if err != nil {
		return nil, nil, err
	}
	var series []ConvergenceSeries
	maxLen := 0
	for i, theta := range thetas {
		s := ConvergenceSeries{Theta: theta, DeltaY: outs[i][0][0].res.FirstRoundDeltas()}
		series = append(series, s)
		maxLen = max(maxLen, len(s.DeltaY))
	}
	// Tabulate: rows = NP-ratio, columns = iteration.
	t := &Table{
		Title:     fmt.Sprintf("Figure 3 — convergence Δy = ‖yᵢ−yᵢ₋₁‖₁ per iteration (γ=100%%, preset %q)", pre.Name),
		ColHeader: "NP-ratio",
		Cols:      make([]string, maxLen),
	}
	for i := 0; i < maxLen; i++ {
		t.Cols[i] = fmt.Sprintf("iter%d", i+1)
	}
	sec := Section{Name: "Δy"}
	for _, s := range series {
		row := TableRow{Label: fmt.Sprintf("θ=%d", s.Theta)}
		for i := 0; i < maxLen; i++ {
			if i < len(s.DeltaY) {
				row.Cells = append(row.Cells, fmt.Sprintf("%.0f", s.DeltaY[i]))
			} else {
				row.Cells = append(row.Cells, "")
			}
		}
		sec.Rows = append(sec.Rows, row)
	}
	t.Sections = []Section{sec}
	return series, t, nil
}

func fig3Thetas(pre Preset) []int {
	// The paper plots θ ∈ {10, 30, 50}; clamp into the preset's range.
	want := []int{10, 30, 50}
	max := 0
	for _, th := range pre.ThetaValues {
		if th > max {
			max = th
		}
	}
	var out []int
	for _, th := range want {
		if th <= max {
			out = append(out, th)
		}
	}
	if len(out) == 0 {
		out = pre.ThetaValues
	}
	return out
}

// ScalePoint is one Figure 4 measurement.
type ScalePoint struct {
	Theta   int
	Budget  int
	Elapsed time.Duration
}

// RunFig4 regenerates Figure 4: ActiveIter training wall time versus
// NP-ratio (data size) for budgets 50 and 100, single fold, γ=100%.
func RunFig4(pre Preset) ([]ScalePoint, *Table, error) {
	pre.Workers = 1 // a timed run has the machine to itself
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, nil, err
	}
	budgets := []int{50, 100}
	var variants []variant
	for _, b := range budgets {
		variants = append(variants, variant{
			name: fmt.Sprintf("ActiveIter-%d", b), trace: true,
			cfg: core.Config{Budget: b, Strategy: active.Conflict{}},
		})
	}
	outs, err := pr.run(thetaCells(pre.ThetaValues, 400, variants...)...)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:     fmt.Sprintf("Figure 4 — training time vs NP-ratio (γ=100%%, preset %q)", pre.Name),
		ColHeader: "method",
	}
	for _, theta := range pre.ThetaValues {
		t.Cols = append(t.Cols, fmt.Sprintf("θ=%d", theta))
	}
	var points []ScalePoint
	rows := make([]TableRow, len(budgets))
	for ci, theta := range pre.ThetaValues {
		for vi, b := range budgets {
			p := ScalePoint{Theta: theta, Budget: b, Elapsed: outs[ci][vi][0].elapsed}
			points = append(points, p)
			rows[vi].Label = variants[vi].name
			rows[vi].Cells = append(rows[vi].Cells, fmt.Sprintf("%.0fms", float64(p.Elapsed.Microseconds())/1000))
		}
	}
	t.Sections = []Section{{Name: "wall time", Rows: rows}}
	return points, t, nil
}

// RunFig5 regenerates Figure 5: ActiveIter and ActiveIter-Rand across
// query budgets at (θ, γ) fixed, with Iter-MPMD at γ and γ+10% as the
// reference lines.
func RunFig5(pre Preset) (*Table, error) {
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, err
	}
	sweeps := []struct {
		label    string
		strategy active.Strategy
	}{{"ActiveIter", active.Conflict{}}, {"ActiveIter-Rand", active.Random{}}}
	at := cell{theta: pre.FixedTheta, gamma: pre.FixedGamma, salt: sweepSalt(pre.FixedGamma)}
	for _, sw := range sweeps {
		for _, b := range pre.Budgets {
			at.variants = append(at.variants, variant{name: fmt.Sprintf("%s-b%d", sw.label, b), cfg: core.Config{Budget: b, Strategy: sw.strategy}})
		}
	}
	reference := []variant{{name: "Iter-MPMD"}}
	at.variants = append(at.variants, reference...)
	cells := []cell{at}
	// The second reference line has γ + 10% of the labels; at γ = 100%
	// there is no such line.
	if gammaHi := min(pre.FixedGamma+0.1, 1); gammaHi != pre.FixedGamma {
		cells = append(cells, cell{theta: pre.FixedTheta, gamma: gammaHi, salt: sweepSalt(gammaHi), variants: reference})
	}
	outs, err := pr.run(cells...)
	if err != nil {
		return nil, err
	}
	// One row per line of the figure: a budget sweep has one variant per
	// column, a reference repeats its single run — the last variant of its
	// cell — across the columns.
	nb := len(pre.Budgets)
	type line struct {
		label string
		cols  [][]outcome
	}
	var lines []line
	for si, sw := range sweeps {
		lines = append(lines, line{sw.label, outs[0][si*nb : (si+1)*nb]})
	}
	for c, ref := range cells {
		cols := make([][]outcome, nb)
		for i := range cols {
			cols[i] = outs[c][len(outs[c])-1]
		}
		lines = append(lines, line{fmt.Sprintf("Iter-MPMD γ=%.0f%%", ref.gamma*100), cols})
	}
	t := &Table{
		Title:     fmt.Sprintf("Figure 5 — budget sensitivity (θ=%d, γ=%.0f%%, preset %q)", pre.FixedTheta, pre.FixedGamma*100, pre.Name),
		ColHeader: "method",
	}
	for _, b := range pre.Budgets {
		t.Cols = append(t.Cols, fmt.Sprintf("b=%d", b))
	}
	for _, metric := range eval.AllMetrics {
		sec := Section{Name: string(metric)}
		for _, l := range lines {
			row := TableRow{Label: l.label}
			for _, folds := range l.cols {
				row.Cells = append(row.Cells, summarize(folds).Get(metric).String())
			}
			sec.Rows = append(sec.Rows, row)
		}
		t.Sections = append(t.Sections, sec)
	}
	return t, nil
}
