package active

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// conflictState builds the canonical conflict scenario:
//
//	idx 0: (0,0) score 0.90 label 1   strong positive
//	idx 1: (1,1) score 0.58 label 1   near-tie positive  (l′ for idx 3)
//	idx 2: (2,2) score 0.20 label 1   weak positive      (l″ for idx 3)
//	idx 3: (1,2) score 0.60 label 0   the false negative candidate
//	idx 4: (0,3) score 0.55 label 0   one conflict only → not a candidate
//	idx 5: (3,3) score 0.70 label 0   no conflicts → not a candidate
func conflictState() *State {
	return everyLink(&State{
		Links: []hetnet.Anchor{
			{I: 0, J: 0}, {I: 1, J: 1}, {I: 2, J: 2},
			{I: 1, J: 2}, {I: 0, J: 3}, {I: 3, J: 3},
		},
		Scores: []float64{0.90, 0.58, 0.20, 0.60, 0.55, 0.70},
		Labels: []float64{1, 1, 1, 0, 0, 0},
	})
}

func TestTruthOracle(t *testing.T) {
	g1 := hetnet.NewSocialNetwork("a")
	g2 := hetnet.NewSocialNetwork("b")
	for i := 0; i < 3; i++ {
		g1.AddNode(hetnet.User, string(rune('a'+i)))
		g2.AddNode(hetnet.User, string(rune('a'+i)))
	}
	pair := hetnet.NewAlignedPair(g1, g2)
	if err := pair.AddAnchor(0, 1); err != nil {
		t.Fatal(err)
	}
	o := NewTruthOracle(pair)
	if o.Label(hetnet.Anchor{I: 0, J: 1}) != 1 {
		t.Error("true anchor should label 1")
	}
	if o.Label(hetnet.Anchor{I: 0, J: 0}) != 0 {
		t.Error("non-anchor should label 0")
	}
	counting := &CountingOracle{Inner: o}
	counting.Label(hetnet.Anchor{I: 0, J: 1})
	counting.Label(hetnet.Anchor{I: 1, J: 1})
	if counting.Queries() != 2 {
		t.Errorf("Queries = %d", counting.Queries())
	}
}

type constOracle float64

func (c constOracle) Label(hetnet.Anchor) float64 { return float64(c) }

// CountingOracle is shared across concurrent per-partition training
// pipelines; its counter must not race. Run under -race.
func TestCountingOracleConcurrent(t *testing.T) {
	o := &CountingOracle{Inner: constOracle(0)}
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.Label(hetnet.Anchor{I: i, J: i})
			}
		}()
	}
	wg.Wait()
	if got := o.Queries(); got != goroutines*per {
		t.Errorf("Queries = %d, want %d", got, goroutines*per)
	}
}

func TestConflictSelectsFalseNegative(t *testing.T) {
	st := conflictState()
	s := Conflict{CloseTol: 0.05, Margin: 0.05}
	picks := s.Select(st, 1, rand.New(rand.NewSource(1)))
	if len(picks) != 1 || picks[0] != 3 {
		t.Errorf("picks = %v, want [3]", picks)
	}
}

func TestConflictFallbackFillsBudget(t *testing.T) {
	st := conflictState()
	s := Conflict{CloseTol: 0.05, Margin: 0.05}
	picks := s.Select(st, 3, rand.New(rand.NewSource(1)))
	if len(picks) != 3 {
		t.Fatalf("picks = %v, want 3 entries", picks)
	}
	if picks[0] != 3 {
		t.Errorf("first pick = %d, want the conflict candidate 3", picks[0])
	}
	// Fallback: highest-scored remaining negatives, 5 (0.70) then 4 (0.55).
	if picks[1] != 5 || picks[2] != 4 {
		t.Errorf("fallback picks = %v, want [5 4]", picks[1:])
	}
}

func TestConflictRequiresWeakBlocker(t *testing.T) {
	st := conflictState()
	// Make the weak positive strong: no l″ with ŷ_l − ŷ_l″ ≥ margin.
	st.Scores[2] = 0.59
	s := Conflict{CloseTol: 0.05, Margin: 0.05}
	picks := s.Select(st, 1, rand.New(rand.NewSource(1)))
	// idx 3 no longer qualifies; fallback gives the top-scored negative 5.
	if len(picks) != 1 || picks[0] == 3 {
		t.Errorf("picks = %v, should not contain 3", picks)
	}
}

func TestConflictRequiresNearTie(t *testing.T) {
	st := conflictState()
	// Push l′ far above l: |ŷ_l′ − ŷ_l| > closeTol on both conflicts.
	st.Scores[1] = 0.90
	s := Conflict{CloseTol: 0.05, Margin: 0.05}
	picks := s.Select(st, 1, rand.New(rand.NewSource(1)))
	if len(picks) == 1 && picks[0] == 3 {
		t.Error("idx 3 should not qualify without a near-tie blocker")
	}
}

func TestConflictSymmetricSides(t *testing.T) {
	// l′ on the J side, l″ on the I side.
	st := everyLink(&State{
		Links: []hetnet.Anchor{
			{I: 1, J: 1}, // weak positive (l″), shares I=... wait: shares nothing yet
			{I: 2, J: 2}, // near-tie positive (l′)
			{I: 1, J: 2}, // candidate: I=1 hits idx0, J=2 hits idx1
		},
		Scores: []float64{0.15, 0.62, 0.60},
		Labels: []float64{1, 1, 0},
	})
	s := Conflict{CloseTol: 0.05, Margin: 0.05}
	picks := s.Select(st, 1, rand.New(rand.NewSource(1)))
	if len(picks) != 1 || picks[0] != 2 {
		t.Errorf("picks = %v, want [2]", picks)
	}
}

func TestConflictDefaults(t *testing.T) {
	st := conflictState()
	var s Conflict
	picks := s.Select(st, 1, rand.New(rand.NewSource(1)))
	if len(picks) != 1 || picks[0] != 3 {
		t.Errorf("zero-value Conflict should use 0.05 defaults, picks = %v", picks)
	}
	if s.Name() != "conflict" {
		t.Error("Name wrong")
	}
}

func TestRandomStrategy(t *testing.T) {
	st := conflictState()
	r := Random{}
	if r.Name() != "random" {
		t.Error("Name wrong")
	}
	p1 := r.Select(st, 4, rand.New(rand.NewSource(5)))
	p2 := r.Select(st, 4, rand.New(rand.NewSource(5)))
	if len(p1) != 4 {
		t.Fatalf("picks = %v", p1)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed should give same picks")
		}
	}
	// Oversized k clamps.
	if got := r.Select(st, 100, rand.New(rand.NewSource(5))); len(got) != len(st.Links) {
		t.Errorf("oversized k selected %d", len(got))
	}
	// No duplicates.
	seen := map[int]bool{}
	for _, idx := range p1 {
		if seen[idx] {
			t.Fatal("duplicate pick")
		}
		seen[idx] = true
	}
}

func TestUncertaintyStrategy(t *testing.T) {
	st := conflictState()
	u := Uncertainty{}
	if u.Name() != "uncertainty" {
		t.Error("Name wrong")
	}
	picks := u.Select(st, 2, rand.New(rand.NewSource(1)))
	// Distances to 0.5: idx0 .4, idx1 .08, idx2 .3, idx3 .1, idx4 .05, idx5 .2
	if len(picks) != 2 || picks[0] != 4 || picks[1] != 1 {
		t.Errorf("picks = %v, want [4 1]", picks)
	}
}

// Regression: Uncertainty used to hardcode its 0.5 boundary, ignoring
// the training loop's configured threshold. With State.Threshold set it
// must query around the configured boundary instead.
func TestUncertaintyFollowsStateThreshold(t *testing.T) {
	st := conflictState()
	thr := 0.7
	st.Threshold = &thr
	picks := Uncertainty{}.Select(st, 2, rand.New(rand.NewSource(1)))
	// Distances to 0.7: idx0 .2, idx1 .12, idx2 .5, idx3 .1, idx4 .15, idx5 0
	if len(picks) != 2 || picks[0] != 5 || picks[1] != 3 {
		t.Errorf("picks = %v, want [5 3] (nearest 0.7)", picks)
	}
	// An explicit 0 boundary is honored, not replaced by the ½ default.
	zero := 0.0
	st.Threshold = &zero
	picks = Uncertainty{}.Select(st, 1, rand.New(rand.NewSource(1)))
	// Distances to 0: idx2 .2 is the closest score.
	if len(picks) != 1 || picks[0] != 2 {
		t.Errorf("picks = %v, want [2] (nearest 0)", picks)
	}
	// A strategy-level override still wins over the state boundary.
	st.Threshold = &thr
	picks = Uncertainty{Threshold: 0.9}.Select(st, 1, rand.New(rand.NewSource(1)))
	// Distances to 0.9: idx0 0 is the closest score.
	if len(picks) != 1 || picks[0] != 0 {
		t.Errorf("picks = %v, want [0] (nearest 0.9 override)", picks)
	}
}
