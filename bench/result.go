package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/activeiter/activeiter/internal/telemetry"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its measured value.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// phaseReport counts what one measured phase sent and how late an
// open-loop generator ran against its own schedule.
type phaseReport struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	// LateP50us/LateP99us/LateMaxus are the generator's lateness (send
	// start minus due time), open-loop phases only.
	LateP50us float64 `json:"late_p50_us,omitempty"`
	LateP99us float64 `json:"late_p99_us,omitempty"`
	LateMaxus float64 `json:"late_max_us,omitempty"`
}

// notationCost is one row of the per-notation cold-count table.
type notationCost struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	NNZ     int     `json:"nnz"`
}

// provenance records what produced a result.
type provenance struct {
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Preset     string `json:"preset"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Time       string `json:"time"`
}

// runDetail is everything one workload run measured; the contract's
// last-line object is a projection of it.
type runDetail struct {
	Workload   string        `json:"workload"`
	Trace      bool          `json:"trace"`
	Provenance provenance    `json:"provenance"`
	Correct    bool          `json:"correct"`
	Violations []string      `json:"violations,omitempty"`
	Attempted  int           `json:"attempted"`
	Failed     int           `json:"failed"`
	Phases     []phaseReport `json:"phases"`
	EndToEnd   metrics       `json:"end_to_end,omitempty"`
	Extra      metrics       `json:"extra,omitempty"`
	PerLayer   metrics       `json:"per_layer,omitempty"`
	// LayerSelfS is the traced replay's self time per layer (span minus
	// child coverage, summed by the span name's layer prefix), seconds
	// per op.
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
	// FoldAnchors fingerprints each fold's predicted-anchor set, so sets
	// of runs can be checked for identical outputs.
	FoldAnchors map[string]string `json:"fold_anchors,omitempty"`
	Notations   []notationCost    `json:"notations,omitempty"`
}

// violate records a failed correctness check.
func (d *runDetail) violate(format string, args ...any) {
	d.Correct = false
	if len(d.Violations) < 20 {
		d.Violations = append(d.Violations, fmt.Sprintf(format, args...))
	}
}

// addPhase appends a phase and folds its counts into the run totals.
func (d *runDetail) addPhase(p phaseReport) {
	d.Phases = append(d.Phases, p)
	d.Attempted += p.Attempted
	d.Failed += p.Failed
}

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json — the registry of workload and metric
// names, units and regression bounds this program reports against.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// project selects the declared metrics out of have, in the declared
// units. A workload that bypasses a layer reports that layer's
// per-layer metrics as 0; an end-to-end metric must always be measured.
func project(specs []metricSpec, have metrics, zeroFill bool) (metrics, error) {
	out := make(metrics, len(specs))
	for _, s := range specs {
		m, ok := have[s.Name]
		switch {
		case !ok && zeroFill:
			m = metric{Value: 0, Unit: s.Unit}
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		case m.Unit != s.Unit:
			return nil, fmt.Errorf("metric %s measured in %q, declared in %q", s.Name, m.Unit, s.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, m.Value)
		}
		out[s.Name] = m
	}
	return out, nil
}

// contractLine is the object the driver reads from the last line of
// standard output.
type contractLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// newProvenance gathers the facts every result file carries.
func newProvenance(root string, o options) provenance {
	p := provenance{
		Commit:     "unknown",
		Seed:       o.seed,
		Preset:     o.preset,
		Seconds:    o.seconds,
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					p.CPUModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return p
}

// writeJSON writes v indented to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// tracer wraps the telemetry tracer with the one call shape the
// benchmark uses: run fn under a named child span and return its
// duration in seconds. A nil tracer still times fn.
type tracer struct{ t *telemetry.Tracer }

func (tr tracer) span(name string, parent uint64, fn func(id uint64)) float64 {
	s := tr.t.Start(name, parent)
	t0 := time.Now()
	fn(s.ID())
	d := time.Since(t0)
	s.End()
	return d.Seconds()
}
