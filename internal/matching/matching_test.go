package matching

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGreedyBasic(t *testing.T) {
	cands := []Candidate{
		{I: 0, J: 0, Score: 0.9, Payload: 0},
		{I: 0, J: 1, Score: 0.8, Payload: 1}, // conflicts with first on I=0
		{I: 1, J: 1, Score: 0.7, Payload: 2}, // conflicts with second on J=1
		{I: 2, J: 2, Score: 0.6, Payload: 3},
		{I: 3, J: 3, Score: 0.4, Payload: 4}, // below threshold
	}
	got := Greedy(cands, 0.5, nil)
	if len(got) != 3 {
		t.Fatalf("selected %d, want 3", len(got))
	}
	wantPayloads := []int{0, 2, 3}
	for k, c := range got {
		if c.Payload != wantPayloads[k] {
			t.Errorf("pick %d payload = %d, want %d", k, c.Payload, wantPayloads[k])
		}
	}
}

func TestGreedyRespectsOccupied(t *testing.T) {
	occ := NewOccupied()
	occ.Take(0, 5) // user 0 (left) and user 5 (right) already anchored
	cands := []Candidate{
		{I: 0, J: 1, Score: 0.9}, // left endpoint occupied
		{I: 1, J: 5, Score: 0.9}, // right endpoint occupied
		{I: 1, J: 1, Score: 0.8},
	}
	got := Greedy(cands, 0.5, occ)
	if len(got) != 1 || got[0].I != 1 || got[0].J != 1 {
		t.Errorf("selection = %+v, want only (1,1)", got)
	}
	if occ.Free(1, 1) {
		t.Error("Greedy should mutate occ with its picks")
	}
}

func TestGreedyThresholdBoundary(t *testing.T) {
	cands := []Candidate{
		{I: 0, J: 0, Score: 0.5},  // exactly at threshold: excluded
		{I: 1, J: 1, Score: 0.51}, // above: included
	}
	got := Greedy(cands, 0.5, nil)
	if len(got) != 1 || got[0].I != 1 {
		t.Errorf("selection = %+v, want only score > 0.5", got)
	}
}

func TestGreedyDeterministicTieBreak(t *testing.T) {
	cands := []Candidate{
		{I: 2, J: 2, Score: 0.9},
		{I: 1, J: 1, Score: 0.9},
		{I: 1, J: 2, Score: 0.9},
	}
	got := Greedy(cands, 0.5, nil)
	// Ties break by (I,J): (1,1) first, then (1,2) conflicts, then (2,2).
	if len(got) != 2 || got[0].I != 1 || got[0].J != 1 || got[1].I != 2 || got[1].J != 2 {
		t.Errorf("selection = %+v", got)
	}
}

// TestGreedyMergeWalksInfiniteScores: a run holding +Inf, finite and
// −Inf candidates, with ties at each, is walked in Compare order — ±Inf
// rank above and below every finite score, ties break by (I, J) — and
// the merge of its two halves picks the same.
func TestGreedyMergeWalksInfiniteScores(t *testing.T) {
	inf := math.Inf(1)
	order := []Candidate{
		{I: 1, J: 1, Score: inf},  // picked
		{I: 1, J: 2, Score: inf},  // I=1 taken
		{I: 0, J: 3, Score: 0.7},  // picked
		{I: 2, J: 2, Score: 0.7},  // picked: (1,2) lost, so J=2 is free
		{I: 0, J: 4, Score: -inf}, // I=0 taken
		{I: 3, J: 4, Score: -inf}, // picked
		{I: 4, J: 4, Score: -inf}, // J=4 taken
	}
	want := []Candidate{order[0], order[2], order[3], order[5]}
	run := slices.Clone(order)
	rand.New(rand.NewSource(1)).Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
	slices.SortFunc(run, Compare)
	if !slices.Equal(run, order) {
		t.Fatalf("Compare sorts %+v, want %+v", run, order)
	}
	if got := GreedyMerge(nil, [][]Candidate{run}, nil); !slices.Equal(got, want) {
		t.Fatalf("one run: picked %+v, want %+v", got, want)
	}
	if got := GreedyMerge(nil, [][]Candidate{order[3:], order[:3]}, nil); !slices.Equal(got, want) {
		t.Fatalf("two runs: picked %+v, want %+v", got, want)
	}
}

func TestGreedyEmpty(t *testing.T) {
	if got := Greedy(nil, 0.5, nil); len(got) != 0 {
		t.Errorf("empty input selected %d", len(got))
	}
}

// Regression: a NaN score is not ≤ threshold (every comparison with NaN
// is false), so pre-fix Greedy could select NaN-scored candidates and —
// when the intransitive sort floated the NaN to the front — break out of
// the loop before ever seeing valid candidates. Non-finite scores must
// be skipped entirely, by Greedy and Exact alike.
func TestSelectionSkipsNonFiniteScores(t *testing.T) {
	nan := math.NaN()
	if got := Greedy([]Candidate{{I: 0, J: 0, Score: nan}}, 0.5, nil); len(got) != 0 {
		t.Errorf("Greedy selected NaN-scored candidate: %+v", got)
	}
	if got := Exact([]Candidate{{I: 0, J: 0, Score: nan}}, 0.5, nil); len(got) != 0 {
		t.Errorf("Exact selected NaN-scored candidate: %+v", got)
	}
	// Finite candidates must survive NaN and ±Inf neighbours, wherever
	// the intransitive comparator would have placed them.
	cands := []Candidate{
		{I: 0, J: 0, Score: nan, Payload: 0},
		{I: 1, J: 1, Score: 0.9, Payload: 1},
		{I: 2, J: 2, Score: math.Inf(1), Payload: 2},
		{I: 3, J: 3, Score: 0.7, Payload: 3},
		{I: 4, J: 4, Score: math.Inf(-1), Payload: 4},
	}
	for name, sel := range map[string][]Candidate{
		"Greedy": Greedy(cands, 0.5, nil),
		"Exact":  Exact(cands, 0.5, nil),
	} {
		if len(sel) != 2 {
			t.Fatalf("%s selected %d candidates (%+v), want the 2 finite ones", name, len(sel), sel)
		}
		for _, c := range sel {
			if !finite(c.Score) {
				t.Errorf("%s selected non-finite candidate %+v", name, c)
			}
		}
	}
}

// Regression: with a NaN sorted first (intransitivity permitting), the
// sorted-early-break in Greedy must not hide real candidates behind it.
func TestGreedyNaNDoesNotTriggerEarlyBreak(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cands := randomCandidates(rng, 2+rng.Intn(20), 1+rng.Intn(8), 1+rng.Intn(8))
		want := totalGain(Greedy(cands, 0.5, nil))
		// Splice NaNs throughout; the finite selection must be unchanged.
		withNaN := make([]Candidate, 0, 2*len(cands))
		for k, c := range cands {
			withNaN = append(withNaN, Candidate{I: 100 + k, J: 100 + k, Score: math.NaN()})
			withNaN = append(withNaN, c)
		}
		return totalGain(Greedy(withNaN, 0.5, nil)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOccupiedClone(t *testing.T) {
	occ := NewOccupied()
	occ.Take(1, 2)
	c := occ.Clone()
	c.Take(3, 4)
	if !occ.Free(3, 4) {
		t.Error("Clone should not share state")
	}
	if c.Free(1, 2) {
		t.Error("Clone should copy existing state")
	}
}

func TestExactBasic(t *testing.T) {
	// Greedy picks (0,0)@0.9 blocking two 0.8s; exact prefers the pair.
	cands := []Candidate{
		{I: 0, J: 0, Score: 0.9, Payload: 0},
		{I: 0, J: 1, Score: 0.8, Payload: 1},
		{I: 1, J: 0, Score: 0.8, Payload: 2},
	}
	greedy := Greedy(cands, 0.5, nil)
	exact := Exact(cands, 0.5, nil)
	if len(greedy) != 1 {
		t.Fatalf("greedy selected %d, want 1", len(greedy))
	}
	if len(exact) != 2 {
		t.Fatalf("exact selected %d, want 2", len(exact))
	}
	gGain, eGain := totalGain(greedy), totalGain(exact)
	if eGain <= gGain {
		t.Errorf("exact gain %v should exceed greedy gain %v here", eGain, gGain)
	}
}

func TestExactRespectsOccupiedAndThreshold(t *testing.T) {
	occ := NewOccupied()
	occ.Take(0, 9)
	cands := []Candidate{
		{I: 0, J: 1, Score: 0.99}, // blocked by occ
		{I: 1, J: 1, Score: 0.4},  // below threshold
		{I: 2, J: 2, Score: 0.7},
	}
	got := Exact(cands, 0.5, occ)
	if len(got) != 1 || got[0].I != 2 {
		t.Errorf("exact = %+v, want only (2,2)", got)
	}
}

func TestExactEmpty(t *testing.T) {
	if got := Exact(nil, 0.5, nil); got != nil {
		t.Errorf("exact on empty = %+v", got)
	}
}

func TestExactIsOneToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cands := randomCandidates(rng, 40, 10, 10)
	got := Exact(cands, 0.5, nil)
	seenI, seenJ := map[int]bool{}, map[int]bool{}
	for _, c := range got {
		if seenI[c.I] || seenJ[c.J] {
			t.Fatalf("exact selection violates one-to-one: %+v", got)
		}
		seenI[c.I] = true
		seenJ[c.J] = true
		if c.Score <= 0.5 {
			t.Fatalf("exact selected below-threshold candidate %+v", c)
		}
	}
}

// Property: greedy achieves at least half the exact objective (the
// ½-approximation bound of reference [21]), and exact is an upper bound.
func TestGreedyHalfApproximation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cands := randomCandidates(rng, 2+rng.Intn(30), 1+rng.Intn(8), 1+rng.Intn(8))
		g := totalGain(Greedy(cands, 0.5, nil))
		e := totalGain(Exact(cands, 0.5, nil))
		if e < g-1e-9 {
			return false // exact must dominate greedy
		}
		return g >= e/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: exact solution gain is invariant to candidate order.
func TestExactOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cands := randomCandidates(rng, 2+rng.Intn(20), 1+rng.Intn(6), 1+rng.Intn(6))
		e1 := totalGain(Exact(cands, 0.5, nil))
		shuffled := make([]Candidate, len(cands))
		copy(shuffled, cands)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		e2 := totalGain(Exact(shuffled, 0.5, nil))
		return math.Abs(e1-e2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func randomCandidates(rng *rand.Rand, n, maxI, maxJ int) []Candidate {
	seen := make(map[[2]int]bool)
	var out []Candidate
	for k := 0; k < n; k++ {
		i, j := rng.Intn(maxI), rng.Intn(maxJ)
		if seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		out = append(out, Candidate{I: i, J: j, Score: rng.Float64(), Payload: k})
	}
	return out
}

func TestHungarianMaxKnown(t *testing.T) {
	// Classic 3x3 assignment.
	w := [][]float64{
		{7, 4, 3},
		{6, 8, 5},
		{9, 4, 4},
	}
	match := hungarianMax(w)
	// Optimal: row0→col1 (4), row1→col2 (5), row2→col0 (9) = 18? Check
	// alternatives: 7+8+4=19, 7+5+4=16, 4+6+4=14, 3+8+9=20 ← best.
	total := 0.0
	for i, j := range match {
		total += w[i][j]
	}
	if total != 20 {
		t.Errorf("assignment total = %v, want 20", total)
	}
}

// totalGain returns the selection objective Σ (2·score − 1) of a
// selected set, the quantity the ½-approximation bound refers to when
// threshold = ½.
func totalGain(selected []Candidate) float64 {
	var g float64
	for _, c := range selected {
		g += 2*c.Score - 1
	}
	return g
}
