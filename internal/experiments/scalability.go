package experiments

import (
	"fmt"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/schema"
)

// ScalabilityPoint is one measured configuration of the partitioned
// alignment pipeline (K=1 is the monolithic reference).
type ScalabilityPoint struct {
	Partitions int
	Workers    int
	Overlapped int
	Rejected   int
	Queries    int
	F1         float64
	Precision  float64
	Recall     float64
	PlanTime   time.Duration
	AlignTime  time.Duration
}

// RunScalabilityPoints measures the partitioned pipeline against the
// monolithic one on a single protocol cell of the preset: one fold at
// (FixedTheta, FixedGamma), Iter-MPMD plus the preset's largest query
// budget, across the given partition counts (a leading 1 is the
// monolithic reference — the K=1 plan runs the identical training
// loop). Workers come from the preset, so `-workers 4 -partitions 4`
// measures genuine shard parallelism.
func RunScalabilityPoints(pre Preset, ks []int) ([]ScalabilityPoint, error) {
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, err
	}
	f, err := pr.firstFold(1300)
	if err != nil {
		return nil, err
	}
	// A part whose budget slice is zero trains without a strategy; the
	// part pipeline sees to that itself.
	train := partition.TrainOptions{
		Features: schema.StandardLibrary().All(),
		Core:     core.Config{Strategy: active.Conflict{}, Seed: pre.Seed},
		Workers:  pr.workers(),
	}
	var points []ScalabilityPoint
	for _, k := range ks {
		// The protocol keeps one planner across every K: the first K > 1
		// pays for the fold-independent inputs (graphs, propagation), the
		// rest reuse them and show the marginal sharding cost.
		t0 := time.Now()
		plan, err := pr.plan(f, pr.maxBudget(), k)
		if err != nil {
			return nil, fmt.Errorf("scalability K=%d: %w", k, err)
		}
		planTime := time.Since(t0)
		res, err := partition.Align(pr.base, plan, train, pr.truth)
		if err != nil {
			return nil, fmt.Errorf("scalability K=%d: %w", k, err)
		}
		conf := scoreTest(f.split, res.Label, res.WasQueried)
		points = append(points, ScalabilityPoint{
			Partitions: len(plan.Parts),
			Workers:    train.Workers,
			Overlapped: plan.Overlapped,
			Rejected:   res.Rejected,
			Queries:    res.QueryCount(),
			F1:         conf.F1(),
			Precision:  conf.Precision(),
			Recall:     conf.Recall(),
			PlanTime:   planTime,
			AlignTime:  res.Elapsed,
		})
	}
	return points, nil
}

// RunScalability tabulates RunScalabilityPoints for the CLI: monolithic
// K=1 against the preset's partition count (default sweep 2/4/8).
func RunScalability(pre Preset) (*Table, error) {
	ks := []int{1, 2, 4, 8}
	if pre.Partitions > 1 {
		ks = []int{1, pre.Partitions}
	}
	points, err := RunScalabilityPoints(pre, ks)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Scalability — partitioned vs monolithic alignment (θ=%d, γ=%.0f%%, workers=%d, preset %q)",
			pre.FixedTheta, pre.FixedGamma*100, points[0].Workers, pre.Name),
		ColHeader: "configuration",
		Cols:      []string{"F1", "Precision", "Recall", "queries", "overlap", "rejected", "plan", "align", "speedup"},
	}
	sec := Section{Name: "partitioned alignment"}
	var monoAlign time.Duration
	for i, p := range points {
		if i == 0 {
			monoAlign = p.AlignTime
		}
		label := fmt.Sprintf("K=%d", p.Partitions)
		if p.Partitions == 1 {
			label = "monolithic (K=1)"
		}
		speedup := "—"
		if p.Partitions > 1 && p.AlignTime > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(monoAlign)/float64(p.AlignTime))
		}
		sec.Rows = append(sec.Rows, TableRow{Label: label, Cells: []string{
			fmt.Sprintf("%.4f", p.F1),
			fmt.Sprintf("%.4f", p.Precision),
			fmt.Sprintf("%.4f", p.Recall),
			fmt.Sprint(p.Queries),
			fmt.Sprint(p.Overlapped),
			fmt.Sprint(p.Rejected),
			p.PlanTime.Round(time.Millisecond).String(),
			p.AlignTime.Round(time.Millisecond).String(),
			speedup,
		}})
	}
	t.Sections = []Section{sec}
	return t, nil
}
