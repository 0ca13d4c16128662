// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV) against synthetic aligned networks: Table II
// (dataset statistics), Tables III and IV (method comparison across
// NP-ratios and sample-ratios), Figure 3 (convergence), Figure 4
// (scalability), Figure 5 (budget sensitivity), plus the ablations
// docs/EXPERIMENTS.md lists. Every one is an entry of Registry, and all
// but Table II run the one protocol of protocol.go.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment artifact: a grid of formatted cells
// grouped into sections (one per metric), with one column per swept
// parameter value.
type Table struct {
	Title     string
	ColHeader string
	Cols      []string
	Sections  []Section
	// Notes are free-form footnote lines rendered after the last
	// section — run-level facts that belong to the artifact but fit no
	// column (e.g. the chaos injector's fault totals).
	Notes []string
}

// Section groups rows under a metric name (F1, Precision, ...).
type Section struct {
	Name string
	Rows []TableRow
}

// TableRow is one method's formatted results across the sweep.
type TableRow struct {
	Label string
	Cells []string
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	labelW := len(t.ColHeader)
	for _, s := range t.Sections {
		for _, r := range s.Rows {
			if len(r.Label) > labelW {
				labelW = len(r.Label)
			}
		}
	}
	cellW := 0
	for _, c := range t.Cols {
		if len(c) > cellW {
			cellW = len(c)
		}
	}
	for _, s := range t.Sections {
		for _, r := range s.Rows {
			for _, c := range r.Cells {
				if len(c) > cellW {
					cellW = len(c)
				}
			}
		}
	}
	line := func(label string, cells []string) {
		fmt.Fprintf(w, "  %-*s", labelW, label)
		for _, c := range cells {
			fmt.Fprintf(w, "  %*s", cellW, c)
		}
		fmt.Fprintln(w)
	}
	sep := strings.Repeat("-", 2+labelW+(cellW+2)*len(t.Cols))
	for _, s := range t.Sections {
		fmt.Fprintln(w, sep)
		fmt.Fprintf(w, "[%s]\n", s.Name)
		line(t.ColHeader, t.Cols)
		for _, r := range s.Rows {
			line(r.Label, r.Cells)
		}
	}
	fmt.Fprintln(w, sep)
	for _, n := range t.Notes {
		fmt.Fprintln(w, n)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
