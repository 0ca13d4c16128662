package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
)

// printDetail writes one run's numbers, every metric by name with its
// unit.
func printDetail(w io.Writer, d *runDetail) {
	mode := "untraced"
	if d.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, preset %s, GOMAXPROCS %d of %d cores) correct=%v\n",
		d.Workload, mode, d.Provenance.Seed, d.Provenance.Preset, d.Provenance.GoMaxProcs, d.Provenance.NProc, d.Correct)
	for _, v := range d.Violations {
		fmt.Fprintf(w, "   VIOLATION %s\n", v)
	}
	for _, p := range d.Phases {
		fmt.Fprintf(w, "   phase %-12s %7.2fs attempted %d succeeded %d failed %d", p.Name, p.Seconds, p.Attempted, p.Succeeded, p.Failed)
		if p.LateMaxus > 0 {
			fmt.Fprintf(w, "  generator late p50 %.0fus p99 %.0fus max %.0fus", p.LateP50us, p.LateP99us, p.LateMaxus)
		}
		fmt.Fprintln(w)
	}
	for _, group := range []struct {
		title string
		m     metrics
	}{{"end-to-end", d.EndToEnd}, {"workload", d.Extra}, {"per-layer", d.PerLayer}} {
		if d.Trace && group.title == "workload" {
			continue // a traced run reports these among the per-layer metrics
		}
		names := make([]string, 0, len(group.m))
		for name := range group.m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "   %-11s %-34s %14.6g %s\n", group.title, name, group.m[name].Value, group.m[name].Unit)
		}
	}
	if len(d.LayerSelfS) > 0 {
		layers := make([]string, 0, len(d.LayerSelfS))
		for l := range d.LayerSelfS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "   self-time   %-34s %14.6g s/op\n", l, d.LayerSelfS[l])
		}
	}
}

// suiteResult is bench/out/result.json.
type suiteResult struct {
	Provenance provenance     `json:"provenance"`
	Sets       [][]*runDetail `json:"sets"` // per set: every workload's untraced then traced run
	Spread     []spreadRow    `json:"spread,omitempty"`
	OK         bool           `json:"ok"`
}

// spreadRow is one metric × workload across the sets of a -sets run.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"rel_spread"`
	Range    float64   `json:"rel_range"`
	Bound    float64   `json:"bound"`
	Within   bool      `json:"within_bound"`
}

// exactBound is the agreement required between sets of the metrics
// that are counts or byte totals of a deterministic computation rather
// than timings.
const exactBound = 0.02

var exactMetrics = []string{"alloc_mb_per_op", "wire_bytes_per_op"}

// runSuite runs every workload untraced and traced, each in a fresh
// child process of this binary so peak RSS, heap state and caches do
// not leak between workloads, o.sets times over.
func runSuite(ctx context.Context, o options) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	res := suiteResult{Provenance: newProvenance(root, o), OK: true}
	for set := 0; set < o.sets; set++ {
		var runs []*runDetail
		for _, w := range workloads() {
			for trace := 0; trace <= 1; trace++ {
				d, err := runChild(ctx, exe, root, outDir, o, w.name, trace)
				if err != nil {
					return fmt.Errorf("set %d, %s, trace %d: %w", set+1, w.name, trace, err)
				}
				printDetail(os.Stdout, d)
				if !d.Correct {
					res.OK = false
				}
				runs = append(runs, d)
			}
		}
		res.Sets = append(res.Sets, runs)
	}
	if o.sets > 1 {
		res.Spread = compareSets(spec, res.Sets)
		fmt.Printf("\n%-14s %-20s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "range", "bound")
		for _, r := range res.Spread {
			flag := ""
			if !r.Within {
				flag, res.OK = "  BEYOND BOUND", false
			}
			fmt.Printf("%-14s %-20s %12.5g %12.5g %12.5g %7.1f%% %7.1f%% %5.0f%%%s\n",
				r.Workload, r.Metric, r.Median, r.Q1, r.Q3, r.Spread*100, r.Range*100, r.Bound*100, flag)
		}
		if msg := anchorsDisagree(res.Sets); msg != "" {
			fmt.Println(msg)
			res.OK = false
		}
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), res); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and one trace_<workload>.json per workload\n", filepath.Join("bench", "out", "result.json"))
	if !res.OK {
		return fmt.Errorf("a correctness check failed or two sets disagree beyond a bound (see above)")
	}
	return nil
}

// runChild runs one workload in a child process and reads back the
// detail file it wrote.
func runChild(ctx context.Context, exe, root, outDir string, o options, name string, trace int) (*runDetail, error) {
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace), "-preset", o.preset)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	// Interrupt, not kill, so the child stops its own servers and
	// removes its scratch directory.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	if _, err := cmd.Output(); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(detailPath(outDir, name, trace))
	if err != nil {
		return nil, err
	}
	var d runDetail
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// compareSets lines up every bounded metric × workload across the sets.
func compareSets(spec *benchSpec, sets [][]*runDetail) []spreadRow {
	type key struct{ workload, metric string }
	vals := map[key][]float64{}
	units := map[key]string{}
	bounds := map[string]float64{}
	var order []key
	add := func(k key, m metric) {
		if _, seen := vals[k]; !seen {
			order = append(order, k)
		}
		vals[k] = append(vals[k], m.Value)
		units[k] = m.Unit
	}
	for _, s := range spec.EndToEnd {
		if s.Bound != nil {
			bounds[s.Name] = *s.Bound
		}
	}
	for _, name := range exactMetrics {
		bounds[name] = exactBound
	}
	for _, runs := range sets {
		for _, d := range runs {
			if d.Trace {
				continue
			}
			for _, s := range spec.EndToEnd {
				add(key{d.Workload, s.Name}, d.EndToEnd[s.Name])
			}
			for _, name := range exactMetrics {
				if m, ok := d.Extra[name]; ok {
					add(key{d.Workload, name}, m)
				}
			}
		}
	}
	var rows []spreadRow
	for _, k := range order {
		v := vals[k]
		s := sorted(v)
		q1, q3 := quartiles(v)
		m := median(v)
		r := spreadRow{Workload: k.workload, Metric: k.metric, Unit: units[k], Values: v,
			Median: m, Q1: q1, Q3: q3, Spread: relSpread(v), Bound: bounds[k.metric]}
		if m != 0 {
			r.Range = (s[len(s)-1] - s[0]) / math.Abs(m)
		}
		r.Within = r.Range <= r.Bound
		rows = append(rows, r)
	}
	return rows
}

// anchorsDisagree reports the first fold whose predicted-anchor set
// differs between two sets of one workload; equal seeds must give equal
// outputs.
func anchorsDisagree(sets [][]*runDetail) string {
	first := map[string]map[string]string{}
	for i, runs := range sets {
		for _, d := range runs {
			if d.Trace || len(d.FoldAnchors) == 0 {
				continue
			}
			if i == 0 {
				first[d.Workload] = d.FoldAnchors
				continue
			}
			for fold, hash := range d.FoldAnchors {
				if want, ok := first[d.Workload][fold]; ok && want != hash {
					return fmt.Sprintf("%s fold %s: set 1 predicts %s, set %d predicts %s", d.Workload, fold, want, i+1, hash)
				}
			}
		}
	}
	return ""
}
