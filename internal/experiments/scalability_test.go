package experiments

import (
	"strings"
	"testing"
)

// The scalability experiment must produce one row per configuration
// with a monolithic K=1 reference first.
func TestRunScalabilityTiny(t *testing.T) {
	pre := TinyPreset()
	pre.Partitions = 2
	tab, err := RunScalability(pre)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Sections) != 1 || len(tab.Sections[0].Rows) != 2 {
		t.Fatalf("unexpected table shape: %+v", tab)
	}
	if !strings.Contains(tab.Sections[0].Rows[0].Label, "monolithic") {
		t.Errorf("first row %q is not the monolithic reference", tab.Sections[0].Rows[0].Label)
	}
	if got := tab.Sections[0].Rows[1].Label; got != "K=2" {
		t.Errorf("second row label %q, want K=2", got)
	}

	// The title states the worker count the rows ran on: -workers 0 is
	// serial, which is one worker, not zero.
	pre.Workers = 0
	if tab, err = RunScalability(pre); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Title, "workers=1,") {
		t.Errorf("title at Workers=0: %q", tab.Title)
	}
}

// RunScalabilityPoints at K=1 must agree with itself across calls
// (deterministic protocol) and report zero overlap for the monolithic
// reference.
func TestScalabilityPointsDeterministic(t *testing.T) {
	pre := TinyPreset()
	a, err := RunScalabilityPoints(pre, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScalabilityPoints(pre, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if a[0].F1 != b[0].F1 || a[0].Queries != b[0].Queries {
		t.Errorf("non-deterministic scalability point: %+v vs %+v", a[0], b[0])
	}
	if a[0].Overlapped != 0 || a[0].Rejected != 0 {
		t.Errorf("monolithic point reports overlap %d / rejected %d", a[0].Overlapped, a[0].Rejected)
	}
}

// The partitioned PU path through runCell must work for a full
// experiment (the `-partitions` CLI route) and keep the standard table
// shape.
func TestTable3PartitionedPath(t *testing.T) {
	pre := TinyPreset()
	pre.Partitions = 2
	tab, err := RunTable3(pre)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Sections) == 0 || len(tab.Sections[0].Rows) != len(StandardMethods()) {
		t.Fatalf("unexpected table shape with partitions: %+v", tab)
	}
}
