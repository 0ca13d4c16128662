package experiments

import (
	"slices"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/eval"
)

func TestRunTable3TinyShape(t *testing.T) {
	pre := TinyPreset()
	tab, err := RunTable3(pre)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Sections) != 4 {
		t.Fatalf("sections = %d, want 4 metrics", len(tab.Sections))
	}
	for _, sec := range tab.Sections {
		if len(sec.Rows) != 6 {
			t.Errorf("section %s has %d rows, want 6 methods", sec.Name, len(sec.Rows))
		}
		for _, row := range sec.Rows {
			if len(row.Cells) != len(pre.ThetaValues) {
				t.Errorf("row %s has %d cells, want %d", row.Label, len(row.Cells), len(pre.ThetaValues))
			}
			for _, c := range row.Cells {
				if !strings.Contains(c, "±") {
					t.Errorf("cell %q not in mean±std form", c)
				}
			}
		}
	}
}

// TestTable3ShapeProperties checks the qualitative relationships the
// paper reports, on the tiny preset: the PU family beats the SVM family
// on F1, and meta-diagram features beat path-only features for the SVM.
func TestTable3ShapeProperties(t *testing.T) {
	pre := TinyPreset()
	cells := [][2]float64{{float64(pre.FixedTheta), pre.FixedGamma}}
	res, err := sweep(pre, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 6 {
		t.Fatalf("%d methods, want 6", len(res[0]))
	}
	cell := map[string]eval.MetricSet{}
	for mi, m := range StandardMethods() {
		cell[m.Name] = res[0][mi]
	}
	iterF1 := cell["Iter-MPMD"].F1.Mean
	svmMPMD := cell["SVM-MPMD"].F1.Mean
	svmMP := cell["SVM-MP"].F1.Mean
	if iterF1 <= svmMPMD {
		t.Errorf("Iter-MPMD F1 %v should beat SVM-MPMD %v", iterF1, svmMPMD)
	}
	if svmMPMD < svmMP {
		t.Errorf("SVM-MPMD F1 %v should be ≥ SVM-MP %v", svmMPMD, svmMP)
	}
	activeF1 := cell["ActiveIter-100"].F1.Mean
	if activeF1 < iterF1-0.05 {
		t.Errorf("ActiveIter-100 F1 %v should not trail Iter-MPMD %v", activeF1, iterF1)
	}
}

func TestRunFig3Convergence(t *testing.T) {
	series, tab, err := RunFig3(TinyPreset())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("no series")
	}
	for _, s := range series {
		if len(s.DeltaY) == 0 {
			t.Fatalf("θ=%d: empty trace", s.Theta)
		}
		if last := s.DeltaY[len(s.DeltaY)-1]; last != 0 {
			t.Errorf("θ=%d: did not converge, Δy=%v", s.Theta, last)
		}
	}
	if !strings.Contains(tab.String(), "iter1") {
		t.Error("figure table missing iteration columns")
	}
}

func TestRunFig4Scalability(t *testing.T) {
	pre := TinyPreset()
	points, _, err := RunFig4(pre)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(pre.ThetaValues) {
		t.Errorf("points = %d, want %d", len(points), 2*len(pre.ThetaValues))
	}
}

func TestRunFig5Budgets(t *testing.T) {
	pre := TinyPreset()
	tab, err := RunFig5(pre)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Cols) != len(pre.Budgets) {
		t.Errorf("cols = %d, want %d budgets", len(tab.Cols), len(pre.Budgets))
	}

	// At γ = 100% there is no γ + 10%: the reference line appears once,
	// not twice under one label.
	pre.FixedGamma = 1
	if tab, err = RunFig5(pre); err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, row := range tab.Sections[0].Rows {
		labels = append(labels, row.Label)
	}
	if want := []string{"ActiveIter", "ActiveIter-Rand", "Iter-MPMD γ=100%"}; !slices.Equal(labels, want) {
		t.Errorf("rows at γ=100%%: %q, want %q", labels, want)
	}
}

// A preset without query budgets has no "largest budget" for the
// single-budget experiments to run at: the protocol refuses it up front
// instead of each runner substituting its own default.
func TestEmptyBudgetsIsAnError(t *testing.T) {
	pre := TinyPreset()
	pre.Budgets = nil
	for _, e := range Registry() {
		if e.Name == "table2" {
			continue // dataset statistics only: no protocol
		}
		if _, err := e.Run(pre, DistributedConfig{}); err == nil || !strings.Contains(err.Error(), "no query budgets") {
			t.Errorf("%s on a preset without budgets: err = %v", e.Name, err)
		}
	}
}

func TestPresetsSane(t *testing.T) {
	for _, pre := range []Preset{TinyPreset(), SmallPreset(), PaperPreset()} {
		if err := pre.Data.Validate(); err != nil {
			t.Errorf("%s: %v", pre.Name, err)
		}
		if pre.Folds < 2 || len(pre.ThetaValues) == 0 || len(pre.GammaValues) == 0 {
			t.Errorf("%s: incomplete preset", pre.Name)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:     "demo",
		ColHeader: "m",
		Cols:      []string{"a", "b"},
		Sections: []Section{{
			Name: "F1",
			Rows: []TableRow{{Label: "x", Cells: []string{"1", "2"}}},
		}},
	}
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "[F1]") {
		t.Errorf("rendering wrong:\n%s", s)
	}
}
