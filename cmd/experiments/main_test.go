package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/experiments"
	"github.com/activeiter/activeiter/internal/serve"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// The command end to end through run(): names resolve against the
// registry before anything is generated or opened, one experiment
// renders, and `all` walks the registry in order.
func TestRun(t *testing.T) {
	var names []string
	for _, e := range experiments.Registry() {
		names = append(names, e.Name)
	}
	completed := regexp.MustCompile(`(?m)^\((\S+) completed in `)
	for _, tc := range []struct {
		name string
		args []string
		// wantErr lists substrings of the error; nil means success.
		wantErr []string
		// wantRan is the experiments that must report completion, in order.
		wantRan []string
		wantOut string
	}{
		// The unusable -metrics-listen address proves the order: had the
		// listener been tried first, its error would be the one returned.
		{name: "unknown experiment", args: []string{"-exp", "table9", "-preset", "tiny", "-metrics-listen", "not an address"},
			wantErr: append([]string{`unknown experiment "table9"`}, names...)},
		{name: "unknown preset", args: []string{"-exp", "table2", "-preset", "huge", "-metrics-listen", "not an address"},
			wantErr: []string{`unknown preset "huge"`, "tiny", "small", "paper", "full", "xl"}},
		{name: "one experiment", args: []string{"-exp", "table2", "-preset", "tiny"},
			wantRan: []string{"table2"}, wantOut: "Table II — dataset statistics"},
		{name: "all", args: []string{"-exp", "all", "-preset", "tiny"}, wantRan: names},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if tc.wantErr != nil {
				if err == nil {
					t.Fatalf("run(%v) succeeded, want an error", tc.args)
				}
				for _, want := range tc.wantErr {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name %q", err, want)
					}
				}
				if stdout.Len() != 0 {
					t.Errorf("a rejected run printed:\n%s", stdout.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%v): %v\nstderr: %s", tc.args, err, stderr.String())
			}
			var ran []string
			for _, m := range completed.FindAllStringSubmatch(stdout.String(), -1) {
				ran = append(ran, m[1])
			}
			if !slices.Equal(ran, tc.wantRan) {
				t.Errorf("ran %v, want %v", ran, tc.wantRan)
			}
			if !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("output lacks %q:\n%s", tc.wantOut, stdout.String())
			}
		})
	}
}

// Regression: the old code treated 0 as "flag not set", so `-seed 0` and
// `-workers 0` silently kept the preset values. Overrides must apply
// exactly when the flag was explicitly present on the command line.
func TestOverridesApplyOnlyExplicitFlags(t *testing.T) {
	base := experiments.SmallPreset()

	// Explicit zeros must overwrite the preset values.
	pre := base
	ov := overrides{workers: 0, seed: 0, set: map[string]bool{"workers": true, "seed": true}}
	ov.apply(&pre)
	if pre.Seed != 0 {
		t.Errorf("explicit -seed 0 kept preset seed %d", pre.Seed)
	}
	if pre.Workers != 0 {
		t.Errorf("explicit -workers 0 kept preset workers %d", pre.Workers)
	}

	// Unset flags must not touch the preset, whatever their values.
	pre = base
	ov = overrides{workers: 99, seed: 99, partitions: 99, set: map[string]bool{}}
	ov.apply(&pre)
	if pre.Seed != base.Seed || pre.Workers != base.Workers || pre.Partitions != base.Partitions {
		t.Errorf("unset flags mutated preset: %+v", pre)
	}

	// And a normal non-zero override still works.
	pre = base
	ov = overrides{partitions: 4, set: map[string]bool{"partitions": true}}
	ov.apply(&pre)
	if pre.Partitions != 4 {
		t.Errorf("partitions override = %d, want 4", pre.Partitions)
	}
}

// The distributed flags follow the same explicit-set convention:
// negative worker counts are rejected, `-distrib-workers 0` set
// explicitly means "preset default" (0 passes through), and an unset
// flag leaves the config at the preset-default sentinel regardless of
// the parsed value.
func TestDistributedFlagValidation(t *testing.T) {
	// Negative is only an error when the flag was actually given.
	ov := overrides{distribWorkers: -1, set: map[string]bool{"distrib-workers": true}}
	if err := ov.validate(); err == nil {
		t.Error("explicit -distrib-workers -1 accepted")
	}
	ov = overrides{distribWorkers: -1, set: map[string]bool{}}
	if err := ov.validate(); err != nil {
		t.Errorf("unset distrib-workers validated: %v", err)
	}

	// Explicitly set values reach the config; unset ones do not.
	ov = overrides{distribWorkers: 3, set: map[string]bool{"distrib-workers": true}}
	if got := ov.distributedConfig("").Workers; got != 3 {
		t.Errorf("explicit -distrib-workers 3 resolved to %d", got)
	}
	ov = overrides{distribWorkers: 3, set: map[string]bool{}}
	if got := ov.distributedConfig("").Workers; got != 0 {
		t.Errorf("unset -distrib-workers leaked %d into the config", got)
	}

	// The worker command implies -worker args for the spawned binary.
	cfg := overrides{set: map[string]bool{}}.distributedConfig("/usr/bin/activeiter")
	if cfg.WorkerCmd != "/usr/bin/activeiter" || len(cfg.WorkerArgs) != 1 || cfg.WorkerArgs[0] != "-worker" {
		t.Errorf("worker command config = %+v", cfg)
	}
}

// -distrib-rounds follows the same explicit-set convention as the other
// distributed flags: negative rejected only when given, explicit values
// reach the config, unset values do not leak.
func TestDistribRoundsFlag(t *testing.T) {
	ov := overrides{distribRounds: -1, set: map[string]bool{"distrib-rounds": true}}
	if err := ov.validate(); err == nil {
		t.Error("explicit -distrib-rounds -1 accepted")
	}
	ov = overrides{distribRounds: -1, set: map[string]bool{}}
	if err := ov.validate(); err != nil {
		t.Errorf("unset distrib-rounds validated: %v", err)
	}
	ov = overrides{distribRounds: 3, set: map[string]bool{"distrib-rounds": true}}
	if got := ov.distributedConfig("").Rounds; got != 3 {
		t.Errorf("explicit -distrib-rounds 3 resolved to %d", got)
	}
	ov = overrides{distribRounds: 3, set: map[string]bool{}}
	if got := ov.distributedConfig("").Rounds; got != 0 {
		t.Errorf("unset -distrib-rounds leaked %d into the config", got)
	}
}

// -save-snapshot resolves its facade from the same flags the
// experiments obey: distributed wins whenever any -distrib-* knob is
// set, partitioned when the preset shards, monolithic otherwise — and
// the protocol caps the NP-ratio so crawl presets stay exportable.
func TestSnapshotProtocolResolution(t *testing.T) {
	pre := experiments.SmallPreset()

	p := snapshotProtocolFor(pre, experiments.DistributedConfig{})
	if p.Facade != "monolithic" {
		t.Errorf("plain preset facade = %q", p.Facade)
	}
	if p.Budget != pre.Budgets[len(pre.Budgets)-1] {
		t.Errorf("budget = %d, want the preset's largest (%d)", p.Budget, pre.Budgets[len(pre.Budgets)-1])
	}
	if p.NPRatio != snapshotNPRatioCap {
		t.Errorf("NP-ratio = %d, want capped at %d (preset theta %d)", p.NPRatio, snapshotNPRatioCap, pre.FixedTheta)
	}

	pre.Partitions = 4
	if p := snapshotProtocolFor(pre, experiments.DistributedConfig{}); p.Facade != "partitioned" {
		t.Errorf("sharded preset facade = %q", p.Facade)
	}
	if p := snapshotProtocolFor(pre, experiments.DistributedConfig{WorkerCmd: "/bin/worker"}); p.Facade != "distributed" {
		t.Errorf("worker-cmd facade = %q", p.Facade)
	}
	if p := snapshotProtocolFor(pre, experiments.DistributedConfig{Rounds: 3}); p.Facade != "distributed" {
		t.Errorf("rounds facade = %q", p.Facade)
	}
	if p := snapshotProtocolFor(pre, experiments.DistributedConfig{Workers: 2}); p.Facade != "distributed" {
		t.Errorf("distrib-workers facade = %q", p.Facade)
	}

	// A preset with a small theta keeps it.
	tiny := experiments.TinyPreset()
	if p := snapshotProtocolFor(tiny, experiments.DistributedConfig{}); p.NPRatio != tiny.FixedTheta && tiny.FixedTheta <= snapshotNPRatioCap {
		t.Errorf("tiny NP-ratio = %d, want preset theta %d", p.NPRatio, tiny.FixedTheta)
	}
}

// -save-snapshot end to end on the tiny preset, both exports: the
// artifact opens and indexes as alignd -check does, names the facade its
// flags imply, and holds one model per part — the monolith's is shard 0
// alone.
func TestSaveSnapshot(t *testing.T) {
	for _, tc := range []struct {
		flags  []string
		facade string
		shards []int
	}{
		{nil, "monolithic", []int{0}},
		{[]string{"-partitions", "2"}, "partitioned", []int{0, 1}},
	} {
		t.Run(tc.facade, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tiny.snap")
			var stdout, stderr bytes.Buffer
			if err := run(append([]string{"-preset", "tiny", "-save-snapshot", path}, tc.flags...), &stdout, &stderr); err != nil {
				t.Fatalf("%v\nstderr: %s", err, stderr.String())
			}
			snap, err := snapshot.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := serve.NewIndex(snap); err != nil {
				t.Fatal(err)
			}
			if snap.Meta.Facade != tc.facade {
				t.Errorf("facade %q, want %q", snap.Meta.Facade, tc.facade)
			}
			var shards []int
			for _, sm := range snap.Model.Shards {
				shards = append(shards, sm.Shard)
			}
			if !slices.Equal(shards, tc.shards) {
				t.Errorf("model section holds shards %v, want %v", shards, tc.shards)
			}
			if !strings.Contains(stdout.String(), "snapshot: wrote "+path) {
				t.Errorf("output does not report the artifact:\n%s", stdout.String())
			}
		})
	}
}
