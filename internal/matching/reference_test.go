package matching

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// referenceGreedy is Greedy as it was while it sorted every finite
// candidate before walking the order down to the threshold, with the
// tie on a duplicate link broken by Payload as Greedy's order now breaks
// it. Greedy orders only the candidates that can be selected; the two
// must agree on every finite threshold.
func referenceGreedy(cands []Candidate, threshold float64, occ *Occupied) []Candidate {
	if occ == nil {
		occ = NewOccupied()
	}
	order := make([]int, 0, len(cands))
	for i, c := range cands {
		if finite(c.Score) {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := cands[order[a]], cands[order[b]]
		if ca.Score != cb.Score {
			return ca.Score > cb.Score
		}
		if ca.I != cb.I {
			return ca.I < cb.I
		}
		if ca.J != cb.J {
			return ca.J < cb.J
		}
		return ca.Payload < cb.Payload
	})
	var out []Candidate
	for _, k := range order {
		c := cands[k]
		if c.Score <= threshold {
			break
		}
		if !occ.Free(c.I, c.J) {
			continue
		}
		occ.Take(c.I, c.J)
		out = append(out, c)
	}
	return out
}

// referenceOccupied is Occupied as it was over two maps keyed by
// endpoint.
type referenceOccupied struct {
	left, right map[int]bool
}

func newReferenceOccupied() *referenceOccupied {
	return &referenceOccupied{left: make(map[int]bool), right: make(map[int]bool)}
}

func (o *referenceOccupied) Take(i, j int) { o.left[i], o.right[j] = true, true }

func (o *referenceOccupied) Free(i, j int) bool { return !o.left[i] && !o.right[j] }

func (o *referenceOccupied) Clone() *referenceOccupied {
	c := newReferenceOccupied()
	for k := range o.left {
		c.left[k] = true
	}
	for k := range o.right {
		c.right[k] = true
	}
	return c
}

// referenceIndexGreedy is Greedy as it was while it sorted indices into
// the candidate list (every comparison two indirections and a
// cmp.Compare per key) over the map-backed tracker, Payload last.
func referenceIndexGreedy(cands []Candidate, threshold float64, occ *referenceOccupied) []Candidate {
	var order []int
	for i, c := range cands {
		if finite(c.Score) && c.Score > threshold {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		ca, cb := cands[a], cands[b]
		return cmp.Or(cmp.Compare(cb.Score, ca.Score), cmp.Compare(ca.I, cb.I), cmp.Compare(ca.J, cb.J), cmp.Compare(ca.Payload, cb.Payload))
	})
	var out []Candidate
	for _, k := range order {
		c := cands[k]
		if !occ.Free(c.I, c.J) {
			continue
		}
		occ.Take(c.I, c.J)
		out = append(out, c)
	}
	return out
}

// gradedCandidates draws links whose scores come from a short grid, so
// ties and scores exactly at the threshold are common, with NaN and
// ±Inf mixed in. A link may be drawn twice, and about one candidate in
// eight repeats an earlier one's link and score under its own payload:
// a duplicate only Payload orders.
func gradedCandidates(rng *rand.Rand, n, maxI, maxJ int, threshold float64) []Candidate {
	special := []float64{threshold, math.NaN(), math.Inf(1), math.Inf(-1)}
	base := threshold
	if !finite(base) {
		base = 0.5
	}
	var out []Candidate
	for k := 0; k < n; k++ {
		if len(out) > 0 && rng.Intn(8) == 0 {
			dup := out[rng.Intn(len(out))]
			dup.Payload = k
			out = append(out, dup)
			continue
		}
		i, j := rng.Intn(maxI), rng.Intn(maxJ)
		score := base + float64(rng.Intn(9)-4)/8
		if rng.Intn(6) == 0 {
			score = special[rng.Intn(len(special))]
		}
		out = append(out, Candidate{I: i, J: j, Score: score, Payload: k})
	}
	return out
}

// checkGreedyAgainstReference runs Greedy, the reference and
// GreedyMerge over the candidates sorted in runs from the same
// pre-occupied endpoints and requires the same picks in the same order
// and the same endpoints consumed.
func checkGreedyAgainstReference(t *testing.T, rng *rand.Rand, cands []Candidate, threshold float64) {
	t.Helper()
	occGot, occWant, occMerged := NewOccupied(), NewOccupied(), NewOccupied()
	for n := rng.Intn(4); n > 0; n-- {
		i, j := rng.Intn(8), rng.Intn(8)
		occGot.Take(i, j)
		occWant.Take(i, j)
		occMerged.Take(i, j)
	}
	got, want := Greedy(cands, threshold, occGot), referenceGreedy(cands, threshold, occWant)
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("threshold %v over %d candidates:\n got  %+v\n want %+v", threshold, len(cands), got, want)
	}
	if !reflect.DeepEqual(occGot, occWant) {
		t.Fatalf("threshold %v over %d candidates: occupied endpoints diverge", threshold, len(cands))
	}
	runs := sortedRuns(rng, cands, threshold)
	if merged := GreedyMerge(nil, runs, occMerged); len(merged) != len(want) || (len(want) > 0 && !reflect.DeepEqual(merged, want)) {
		t.Fatalf("threshold %v over %d candidates in %d runs:\n merged %+v\n want   %+v", threshold, len(cands), len(runs), merged, want)
	}
	if !reflect.DeepEqual(occMerged, occWant) {
		t.Fatalf("threshold %v over %d candidates in %d runs: occupied endpoints diverge", threshold, len(cands), len(runs))
	}
}

// sortedRuns cuts the candidates, in their order, into runs of random
// length, keeps each run's Selectable ones and sorts them by Compare — the
// shape of Train's row blocks. A run may come out empty.
func sortedRuns(rng *rand.Rand, cands []Candidate, threshold float64) [][]Candidate {
	var runs [][]Candidate
	for lo := 0; lo < len(cands); {
		hi := min(len(cands), lo+1+rng.Intn(40))
		var run []Candidate
		for _, c := range cands[lo:hi] {
			if Selectable(c.Score, threshold) {
				run = append(run, c)
			}
		}
		slices.SortFunc(run, Compare)
		runs = append(runs, run)
		lo = hi
	}
	return runs
}

// TestGreedyMergeOrdersDuplicateLinks: two candidates for one link with
// one score are ordered by Payload alone, so however the pool is cut
// into runs, the merge walks what one sort walks and picks the smaller
// payload of each duplicate.
func TestGreedyMergeOrdersDuplicateLinks(t *testing.T) {
	cands := []Candidate{
		{I: 1, J: 1, Score: 0.9, Payload: 7},
		{I: 0, J: 2, Score: 0.8, Payload: 1},
		{I: 1, J: 1, Score: 0.9, Payload: 3},
		{I: 0, J: 2, Score: 0.8, Payload: 0},
		{I: 2, J: 0, Score: 0.8, Payload: 5},
	}
	want := []Candidate{cands[2], cands[3], cands[4]}
	if got := Greedy(cands, 0.5, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("Greedy picked %+v, want %+v", got, want)
	}
	for cut := 0; cut <= len(cands); cut++ {
		head, tail := slices.Clone(cands[:cut]), slices.Clone(cands[cut:])
		slices.SortFunc(head, Compare)
		slices.SortFunc(tail, Compare)
		for _, runs := range [][][]Candidate{{head, tail}, {tail, head}} {
			if got := GreedyMerge(nil, runs, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("cut at %d: merge picked %+v, want %+v", cut, got, want)
			}
		}
	}
}

func TestGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 500; trial++ {
		threshold := []float64{0.5, 0, -1, 0.25, math.Inf(-1), math.Inf(1)}[rng.Intn(6)]
		n := []int{0, 1, 2, 10, 60, 300}[rng.Intn(6)]
		checkGreedyAgainstReference(t, rng, gradedCandidates(rng, n, 1+rng.Intn(12), 1+rng.Intn(12), threshold), threshold)
	}
}

// TestGreedyNaNThresholdSelectsNothing pins the one documented
// difference from the reference: no score exceeds a NaN threshold — for
// Exact too, which reads the same Selectable candidates.
func TestGreedyNaNThresholdSelectsNothing(t *testing.T) {
	cands := []Candidate{{I: 0, J: 0, Score: 0.9}, {I: 1, J: 1, Score: math.Inf(1)}}
	if got := Greedy(cands, math.NaN(), nil); len(got) != 0 {
		t.Errorf("NaN threshold selected %+v", got)
	}
	if got := Exact(cands, math.NaN(), nil); len(got) != 0 {
		t.Errorf("Exact at a NaN threshold selected %+v", got)
	}
}

func FuzzGreedy(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(1), uint8(1), 0.5)
	f.Add(int64(2), uint16(40), uint8(6), uint8(6), 0.5)
	f.Add(int64(3), uint16(500), uint8(30), uint8(20), 0.0)
	f.Add(int64(4), uint16(100), uint8(3), uint8(200), -0.25)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, maxI, maxJ uint8, threshold float64) {
		if math.IsNaN(threshold) {
			t.Skip("a NaN threshold selects nothing by contract; the reference selected everything")
		}
		rng := rand.New(rand.NewSource(seed))
		cands := gradedCandidates(rng, int(n), 1+int(maxI), 1+int(maxJ), threshold)
		checkGreedyAgainstReference(t, rng, cands, threshold)
	})
}

// TestOccupiedMatchesReference drives the table-backed tracker and the
// map-backed one it replaced through the same Take / Free / Clone /
// Reserve sequence over endpoints that are dense, negative, either side
// of the table limit and too far apart to table, and requires the same
// answer to every question — including for ints never taken.
func TestOccupiedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pool := []int{0, 1, 2, 3, 7, 63, 64, 1000, -1, -2, -1 << 40, 1 << 40, 1<<40 + 1, tableLimit - 1, tableLimit, tableLimit + 1, math.MaxInt, math.MinInt}
	draw := func() int {
		if rng.Intn(3) == 0 {
			return rng.Intn(50)
		}
		return pool[rng.Intn(len(pool))]
	}
	for trial := 0; trial < 12; trial++ {
		got, want := NewOccupied(), newReferenceOccupied()
		check := func() {
			t.Helper()
			for k := 0; k < 60; k++ {
				if i, j := draw(), draw(); got.Free(i, j) != want.Free(i, j) {
					t.Fatalf("trial %d: Free(%d, %d) = %v, reference %v", trial, i, j, got.Free(i, j), want.Free(i, j))
				}
			}
		}
		for step := 0; step < 40; step++ {
			switch rng.Intn(5) {
			case 0:
				got.Reserve(draw(), draw()) // any int: it changes no answer
			case 1:
				// A clone answers alike and shares nothing.
				gc, wc := got.Clone(), want.Clone()
				i, j := draw(), draw()
				gc.Take(i, j)
				wc.Take(i, j)
				check()
				got, want, gc, wc = gc, wc, got, want
				check()
			default:
				i, j := draw(), draw()
				got.Take(i, j)
				want.Take(i, j)
			}
			check()
		}
	}
}

// TestOccupiedFarEndpointsStayOutOfTheTable: endpoints far apart and
// negative are answered without a table sized by them.
func TestOccupiedFarEndpointsStayOutOfTheTable(t *testing.T) {
	occ := NewOccupied()
	occ.Reserve(math.MaxInt, math.MaxInt)
	occ.Take(-7, 1<<50)
	occ.Take(math.MinInt, math.MaxInt)
	occ.Take(3, 5)
	if n := len(occ.left.near) + len(occ.right.near); n > 10 {
		t.Fatalf("tables hold %d entries for endpoints 3 and 5", n)
	}
	for _, c := range []struct {
		i, j int
		free bool
	}{{-7, 0, false}, {0, 1 << 50, false}, {math.MinInt, 0, false}, {0, math.MaxInt, false}, {3, 0, false}, {0, 5, false},
		{-8, 0, true}, {0, 1<<50 + 1, true}, {4, 6, true}, {math.MaxInt, math.MinInt, true}} {
		if got := occ.Free(c.i, c.j); got != c.free {
			t.Errorf("Free(%d, %d) = %v, want %v", c.i, c.j, got, c.free)
		}
	}
}

// TestEndpointTableClearKeepsStorage: a cleared table answers zero for
// every endpoint it held, near or far, and sets again without growing.
func TestEndpointTableClearKeepsStorage(t *testing.T) {
	var tab EndpointTable[int]
	for _, e := range []int{3, 900, -7, 1 << 50} {
		tab.Set(e, e|1)
	}
	held := cap(tab.near)
	tab.Clear()
	for _, e := range []int{3, 900, -7, 1 << 50, 0} {
		if got := tab.Get(e); got != 0 {
			t.Errorf("Get(%d) = %d after Clear", e, got)
		}
	}
	tab.Set(900, 1)
	if cap(tab.near) != held || tab.Get(900) != 1 || tab.Get(3) != 0 {
		t.Fatalf("after Clear and Set(900): cap %d (held %d), Get(900) %d, Get(3) %d", cap(tab.near), held, tab.Get(900), tab.Get(3))
	}
}

// TestGreedyMatchesIndexSortReference: the by-value sort over the
// table-backed tracker picks what the index sort over maps picked, in
// the same order, and leaves the same endpoints taken — also when the
// endpoints are negative or far apart.
func TestGreedyMatchesIndexSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	spreads := []func(int) int{
		func(e int) int { return e },
		func(e int) int { return e - 6 },
		func(e int) int { return (e%3 - 1) * (1<<40 + e) },
	}
	for trial := 0; trial < 600; trial++ {
		threshold := []float64{0.5, 0, -1, 0.25, math.Inf(-1), math.Inf(1)}[rng.Intn(6)]
		n := []int{0, 1, 2, 10, 60, 300}[rng.Intn(6)]
		maxI, maxJ := 1+rng.Intn(12), 1+rng.Intn(12)
		cands := gradedCandidates(rng, n, maxI, maxJ, threshold)
		spread := spreads[trial%len(spreads)]
		for k := range cands {
			cands[k].I, cands[k].J = spread(cands[k].I), spread(cands[k].J)
		}
		occGot, occWant := NewOccupied(), newReferenceOccupied()
		for n := rng.Intn(4); n > 0; n-- {
			i, j := spread(rng.Intn(8)), spread(rng.Intn(8))
			occGot.Take(i, j)
			occWant.Take(i, j)
		}
		got, want := Greedy(cands, threshold, occGot), referenceIndexGreedy(cands, threshold, occWant)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("threshold %v over %d candidates:\n got  %+v\n want %+v", threshold, len(cands), got, want)
		}
		for e := -1; e <= 12; e++ {
			if i, j := spread(e), spread(e); occGot.Free(i, 1<<60) != occWant.Free(i, 1<<60) || occGot.Free(1<<60, j) != occWant.Free(1<<60, j) {
				t.Fatalf("threshold %v over %d candidates: endpoint %d taken on one side only", threshold, len(cands), i)
			}
		}
	}
}
