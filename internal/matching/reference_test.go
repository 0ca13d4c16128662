package matching

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceGreedy is Greedy as it was while it sorted every finite
// candidate before walking the order down to the threshold. Greedy now
// orders only the candidates that can be selected; the two must agree
// on every finite threshold.
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
		return ca.J < cb.J
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

// gradedCandidates draws distinct links whose scores come from a short
// grid, so ties and scores exactly at the threshold are common, with
// NaN and ±Inf mixed in.
func gradedCandidates(rng *rand.Rand, n, maxI, maxJ int, threshold float64) []Candidate {
	special := []float64{threshold, math.NaN(), math.Inf(1), math.Inf(-1)}
	base := threshold
	if !finite(base) {
		base = 0.5
	}
	seen := make(map[[2]int]bool)
	var out []Candidate
	for k := 0; k < n; k++ {
		i, j := rng.Intn(maxI), rng.Intn(maxJ)
		if seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		score := base + float64(rng.Intn(9)-4)/8
		if rng.Intn(6) == 0 {
			score = special[rng.Intn(len(special))]
		}
		out = append(out, Candidate{I: i, J: j, Score: score, Payload: k})
	}
	return out
}

// checkGreedyAgainstReference runs both selections from the same
// pre-occupied endpoints and requires the same picks in the same order
// and the same endpoints consumed.
func checkGreedyAgainstReference(t *testing.T, rng *rand.Rand, cands []Candidate, threshold float64) {
	t.Helper()
	occGot, occWant := NewOccupied(), NewOccupied()
	for n := rng.Intn(4); n > 0; n-- {
		i, j := rng.Intn(8), rng.Intn(8)
		occGot.Take(i, j)
		occWant.Take(i, j)
	}
	got, want := Greedy(cands, threshold, occGot), referenceGreedy(cands, threshold, occWant)
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("threshold %v over %d candidates:\n got  %+v\n want %+v", threshold, len(cands), got, want)
	}
	if !reflect.DeepEqual(occGot, occWant) {
		t.Fatalf("threshold %v over %d candidates: occupied endpoints diverge", threshold, len(cands))
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
// difference from the reference: no score exceeds a NaN threshold.
func TestGreedyNaNThresholdSelectsNothing(t *testing.T) {
	cands := []Candidate{{I: 0, J: 0, Score: 0.9}, {I: 1, J: 1, Score: math.Inf(1)}}
	if got := Greedy(cands, math.NaN(), nil); len(got) != 0 {
		t.Errorf("NaN threshold selected %+v", got)
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
