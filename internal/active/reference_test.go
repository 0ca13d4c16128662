package active

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// referenceFill and referenceUncertainty are the query selections as
// they were while they sorted every unlabeled link to read the first k.
// The bounded selection that replaced them must pick the same links in
// the same order whenever every score is a number.

func referenceFill(st *State, k int, out []int, taken map[int]bool) []int {
	type scored struct {
		idx int
		y   float64
	}
	var rest []scored
	for idx, lab := range st.Labels {
		if lab == 0 && !taken[idx] {
			rest = append(rest, scored{idx: idx, y: st.Scores[idx]})
		}
	}
	sort.Slice(rest, func(a, b int) bool {
		if rest[a].y != rest[b].y {
			return rest[a].y > rest[b].y
		}
		return rest[a].idx < rest[b].idx
	})
	for _, s := range rest {
		if len(out) == k {
			break
		}
		out = append(out, s.idx)
	}
	return out
}

func referenceUncertainty(u Uncertainty, st *State, k int) []int {
	thr := 0.5
	if st.Threshold != nil {
		thr = *st.Threshold
	}
	if u.Threshold != 0 {
		thr = u.Threshold
	}
	type scored struct {
		idx  int
		dist float64
	}
	all := make([]scored, len(st.Links))
	for idx := range st.Links {
		all[idx] = scored{idx: idx, dist: absF(st.Scores[idx] - thr)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].dist != all[b].dist {
			return all[a].dist < all[b].dist
		}
		return all[a].idx < all[b].idx
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].idx
	}
	return out
}

// gradedState draws n unlabeled links whose scores sit on a short grid
// around ½ (ties are the rule, ±Inf occasional) with about a third
// inferred positive.
func gradedState(rng *rand.Rand, n int) *State {
	st := &State{}
	for idx := 0; idx < n; idx++ {
		score := float64(rng.Intn(13)) / 12
		switch rng.Intn(25) {
		case 0:
			score = math.Inf(1)
		case 1:
			score = math.Inf(-1)
		}
		st.Links = append(st.Links, hetnet.Anchor{I: idx, J: rng.Intn(n)})
		st.Scores = append(st.Scores, score)
		st.Labels = append(st.Labels, float64(rng.Intn(3)/2))
	}
	return st
}

func sameIndices(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestQuerySelectionMatchesReference sweeps pool sizes and k ∈ {0, 1,
// 5, n, n+3} with some indices already taken by the conflict rule.
func TestQuerySelectionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		n := []int{0, 1, 4, 30, 200}[rng.Intn(5)]
		st := gradedState(rng, n)
		for _, k := range []int{0, 1, 5, n, n + 3} {
			taken := make(map[int]bool)
			var out []int
			for len(out) < k/2 && len(out) < n && rng.Intn(2) == 0 {
				if idx := rng.Intn(n); !taken[idx] {
					taken[idx] = true
					out = append(out, idx)
				}
			}
			want := referenceFill(st, k, append([]int{}, out...), taken)
			if got := fillTopScoredNegatives(st, k, append([]int{}, out...), taken); !sameIndices(got, want) {
				t.Fatalf("fill n=%d k=%d taken=%v:\n got  %v\n want %v", n, k, out, got, want)
			}
			for _, u := range []Uncertainty{{}, {Threshold: 0.25}} {
				want := referenceUncertainty(u, st, k)
				if got := u.Select(st, k, nil); !sameIndices(got, want) {
					t.Fatalf("uncertainty %+v n=%d k=%d:\n got  %v\n want %v", u, n, k, got, want)
				}
			}
		}
	}
}

// TestQuerySelectionIgnoresNaN: a NaN score (or a NaN distance to the
// threshold) never outranks a number, and ties still break by index.
// The sorting selections compared with a != b … a > b, which is not
// transitive once a NaN is in the pool, so which links the budget was
// spent on was unspecified.
func TestQuerySelectionIgnoresNaN(t *testing.T) {
	nan := math.NaN()
	st := &State{
		Scores: []float64{nan, 0.2, nan, 0.9, 0.2, math.Inf(-1), nan, 0.4},
		Labels: make([]float64, 8),
		Links:  make([]hetnet.Anchor, 8),
	}
	for k, want := range map[int][]int{
		1: {3},
		3: {3, 7, 1},
		5: {3, 7, 1, 4, 5},
		7: {3, 7, 1, 4, 5, 0, 2},
		9: {3, 7, 1, 4, 5, 0, 2, 6},
	} {
		if got := fillTopScoredNegatives(st, k, nil, map[int]bool{}); !reflect.DeepEqual(got, want) {
			t.Errorf("fill k=%d: %v, want %v", k, got, want)
		}
		if got := (Conflict{}).Select(st, k, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("Conflict k=%d: %v, want %v", k, got, want)
		}
	}
	// Distances to ½: NaN, 0.3, NaN, 0.4, 0.3, +Inf, NaN, 0.1.
	for k, want := range map[int][]int{
		1: {7},
		4: {7, 1, 4, 3},
		6: {7, 1, 4, 3, 5, 0},
		8: {7, 1, 4, 3, 5, 0, 2, 6},
	} {
		if got := (Uncertainty{}).Select(st, k, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("Uncertainty k=%d: %v, want %v", k, got, want)
		}
	}
	// Wherever the NaNs sit, the numbers are chosen first, in one order.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		clean := gradedState(rng, n)
		dirty := &State{Links: clean.Links, Labels: clean.Labels, Scores: append([]float64{}, clean.Scores...)}
		numbers := 0
		for idx := range dirty.Scores {
			if rng.Intn(3) == 0 {
				dirty.Scores[idx] = nan
			} else if dirty.Labels[idx] == 0 {
				numbers++
			}
		}
		got := fillTopScoredNegatives(dirty, n, nil, map[int]bool{})
		for pos, idx := range got {
			if isNaN := dirty.Scores[idx] != dirty.Scores[idx]; isNaN != (pos >= numbers) {
				t.Fatalf("trial %d: pick %d of %v has score %v with %d numbered negatives", trial, pos, got, dirty.Scores[idx], numbers)
			}
		}
		if !sort.SliceIsSorted(got[numbers:], func(a, b int) bool { return got[numbers+a] < got[numbers+b] }) {
			t.Fatalf("trial %d: NaN-scored picks %v not in index order", trial, got[numbers:])
		}
	}
}
