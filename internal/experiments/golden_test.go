package experiments

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables_k*.golden from this build's output")

// durationCell matches the cells that vary from run to run: wall times
// ("12ms", "1.204s", "1m3s") and the speed-ups derived from them
// ("1.37x").
var durationCell = regexp.MustCompile(`^(([0-9.]+(h|m|s|ms|µs|ns))+|[0-9.]+x)$`)

func maskDurations(t *Table) {
	for _, s := range t.Sections {
		for _, r := range s.Rows {
			for c, cell := range r.Cells {
				if durationCell.MatchString(cell) {
					r.Cells[c] = "~"
				}
			}
		}
	}
}

// renderRegistry runs every registry entry at pre (the distributed one
// over loopback with two session rounds) and renders the tables, wall
// times masked, under one "== name ==" header each.
func renderRegistry(t *testing.T, pre Preset) string {
	var b strings.Builder
	for _, e := range Registry() {
		tab, err := e.Run(pre, DistributedConfig{Rounds: 2})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		maskDurations(tab)
		fmt.Fprintf(&b, "== %s ==\n", e.Name)
		tab.Render(&b)
		b.WriteString("\n")
	}
	return b.String()
}

// TestTablesGolden pins every non-duration cell of every experiment at
// the tiny preset, with each fold trained as one part (k0) and sharded
// two ways (k2). The goldens were rendered at 307a219, before the
// runners moved onto the shared protocol; regenerate them with
// `go test ./internal/experiments -run TestTablesGolden -update` only
// for a change that means to move a number, and say which in the PR.
func TestTablesGolden(t *testing.T) {
	for _, k := range []int{0, 2} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			pre := TinyPreset()
			pre.Partitions = k
			got := renderRegistry(t, pre)
			path := fmt.Sprintf("testdata/tables_k%d.golden", k)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			// Name the first line that moved and the experiment it is in.
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			exp := ""
			for i, line := range gotLines {
				if strings.HasPrefix(line, "== ") {
					exp = line
				}
				if i >= len(wantLines) || line != wantLines[i] {
					w := "<end of golden>"
					if i < len(wantLines) {
						w = wantLines[i]
					}
					t.Fatalf("%s line %d, %s:\n got: %s\nwant: %s", path, i+1, exp, line, w)
				}
			}
			t.Fatalf("%s: output ends %d lines before the golden does", path, len(wantLines)-len(gotLines))
		})
	}
}

// BenchmarkExperiments regenerates each registry entry once per
// iteration at the tiny preset.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range Registry() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(TinyPreset(), DistributedConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
