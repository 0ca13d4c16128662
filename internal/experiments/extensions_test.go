package experiments

import (
	"testing"
)

func TestRunStability(t *testing.T) {
	pre := TinyPreset()
	tab, err := RunStability(pre, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Cols) != 2 {
		t.Errorf("cols = %d, want 2 seeds", len(tab.Cols))
	}
	if len(tab.Sections[0].Rows) != 6 {
		t.Errorf("rows = %d, want 6 methods", len(tab.Sections[0].Rows))
	}
	// Clamping: seeds < 2 becomes 3.
	tab3, err := RunStability(pre, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab3.Cols) != 3 {
		t.Errorf("clamped cols = %d, want 3", len(tab3.Cols))
	}
}
