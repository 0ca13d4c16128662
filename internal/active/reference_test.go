package active

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// everyLink lists every link of st as unlabeled, so a position into
// st.Unlabeled is an index into st.Links: the state a strategy was
// handed while the training loop gathered the unlabeled links into a
// copy of their own.
func everyLink(st *State) *State {
	st.Unlabeled = make([]int, len(st.Links))
	for idx := range st.Unlabeled {
		st.Unlabeled[idx] = idx
	}
	return st
}

// referenceFill and referenceUncertainty are the query selections as
// they were while they sorted every unlabeled link to read the first k.
// The bounded selection that replaced them must pick the same links in
// the same order whenever every score is a number.

func referenceFill(st *State, k int, out []int, taken []bool) []int {
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

// referenceTopScoredFill is the conflict rule's fill as Select ran it in
// a second pass over the pool: the highest-scored negatives not taken,
// by ranked.below (NaN after every number, ties to the smaller index),
// appended until out holds k.
func referenceTopScoredFill(st *State, k int, out []int, taken []bool) []int {
	var rest []ranked
	for idx, lab := range st.Labels {
		if lab == 0 && !taken[idx] {
			rest = append(rest, ranked{pos: idx, key: st.Scores[idx]})
		}
	}
	sort.Slice(rest, func(a, b int) bool { return rest[b].below(rest[a]) })
	for _, r := range rest {
		if len(out) == k {
			break
		}
		out = append(out, r.pos)
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

// referenceConflictSelect is Conflict.Select as it was while it kept
// the positives in two per-call maps keyed by endpoint and the picked
// links in a third: whatever the endpoints are, the table-indexed
// selection must return the same links in the same order. It also
// reports how many links the conflict rule itself admitted.
func referenceConflictSelect(c Conflict, st *State, k int) (picks []int, admitted int) {
	closeTol := c.CloseTol
	if closeTol <= 0 {
		closeTol = 0.05
	}
	margin := c.Margin
	if margin <= 0 {
		margin = closeTol
	}
	posAtI := make(map[int]int)
	posAtJ := make(map[int]int)
	for idx, lab := range st.Labels {
		if lab == 1 {
			posAtI[st.Links[idx].I] = idx
			posAtJ[st.Links[idx].J] = idx
		}
	}
	type cand struct {
		idx  int
		gain float64
	}
	var cands []cand
	taken := make([]bool, len(st.Labels))
	for idx, lab := range st.Labels {
		if lab != 0 {
			continue
		}
		l := st.Links[idx]
		conflicts := make([]int, 0, 2)
		if p, ok := posAtI[l.I]; ok {
			conflicts = append(conflicts, p)
		}
		if p, ok := posAtJ[l.J]; ok && (len(conflicts) == 0 || conflicts[0] != p) {
			conflicts = append(conflicts, p)
		}
		if len(conflicts) < 2 {
			continue
		}
		yl := st.Scores[idx]
		bestGain, found := 0.0, false
		for _, pi := range conflicts {
			for _, pj := range conflicts {
				if pi == pj {
					continue
				}
				yp, yw := st.Scores[pi], st.Scores[pj]
				if yw <= 0 {
					continue
				}
				if absF(yp-yl) <= closeTol && yl-yw >= margin {
					if g := yl - yw; !found || g > bestGain {
						bestGain, found = g, true
					}
				}
			}
		}
		if found {
			cands = append(cands, cand{idx: idx, gain: bestGain})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].gain != cands[b].gain {
			return cands[a].gain > cands[b].gain
		}
		return cands[a].idx < cands[b].idx
	})
	out := make([]int, 0, k)
	for _, c := range cands {
		if len(out) == k {
			break
		}
		out = append(out, c.idx)
		taken[c.idx] = true
	}
	if len(out) < k {
		out = referenceTopScoredFill(st, k, out, taken)
	}
	return out, len(cands)
}

// contestedState draws a state the conflict rule has work in: a partial
// matching of positives scored on both sides of the near-tie and weak
// blocker cut-offs, and negatives that share one endpoint, both, or
// neither with them. spread maps a small endpoint id onto the int the
// link carries, so the same structure can be laid over dense indices,
// negative ones, or ones too far apart to table.
func contestedState(rng *rand.Rand, n int, spread func(int) int) *State {
	st := &State{}
	side := 1 + n/3
	usedI, usedJ := make(map[int]bool), make(map[int]bool)
	for idx := 0; idx < n; idx++ {
		i, j := rng.Intn(side), rng.Intn(side)
		label := 0.0
		if rng.Intn(3) == 0 && !usedI[i] && !usedJ[j] {
			label, usedI[i], usedJ[j] = 1, true, true
		}
		score := float64(rng.Intn(41)-4) / 40 // −0.1 … 0.9 in steps of 0.025
		if rng.Intn(40) == 0 {
			score = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		st.Links = append(st.Links, hetnet.Anchor{I: spread(i), J: spread(j)})
		st.Scores = append(st.Scores, score)
		st.Labels = append(st.Labels, label)
	}
	return everyLink(st)
}

// TestConflictSelectMatchesReference: same picks, same order, for
// endpoints that are dense indices, negative, and far apart.
func TestConflictSelectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	spreads := map[string]func(int) int{
		"dense":    func(e int) int { return e },
		"negative": func(e int) int { return e - 5 },
		"far":      func(e int) int { return (e%3 - 1) * (1<<40 + e) },
	}
	admitted := 0
	for name, spread := range spreads {
		for trial := 0; trial < 200; trial++ {
			n := []int{0, 1, 5, 40, 300}[rng.Intn(5)]
			st := contestedState(rng, n, spread)
			for _, c := range []Conflict{{}, {CloseTol: 0.1}, {CloseTol: 0.05, Margin: 0.2}} {
				for _, k := range []int{0, 1, 5, n + 2} {
					want, byRule := referenceConflictSelect(c, st, k)
					admitted += byRule
					if got := c.Select(st, k, nil); !sameIndices(got, want) {
						t.Fatalf("%s endpoints, %+v, n=%d k=%d:\n got  %v\n want %v", name, c, n, k, got, want)
					}
				}
			}
		}
	}
	if admitted == 0 {
		t.Fatal("the conflict rule admitted no link in the whole sweep; it compared two fills")
	}
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
	return everyLink(st)
}

func sameIndices(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestQuerySelectionMatchesReference sweeps pool sizes and k ∈ {0, 1,
// 5, n, n+3}. No two of gradedState's links share a left endpoint, so
// the conflict rule admits nothing and Conflict.Select is its fill
// alone; TestConflictSelectMatchesReference fills after conflict picks.
func TestQuerySelectionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		n := []int{0, 1, 4, 30, 200}[rng.Intn(5)]
		st := gradedState(rng, n)
		for _, k := range []int{0, 1, 5, n, n + 3} {
			want := referenceFill(st, k, nil, make([]bool, n))
			if got := (Conflict{}).Select(st, k, nil); !sameIndices(got, want) {
				t.Fatalf("fill n=%d k=%d:\n got  %v\n want %v", n, k, got, want)
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
	st := everyLink(&State{
		Scores: []float64{nan, 0.2, nan, 0.9, 0.2, math.Inf(-1), nan, 0.4},
		Labels: make([]float64, 8),
		Links:  make([]hetnet.Anchor, 8),
	})
	for k, want := range map[int][]int{
		1: {3},
		3: {3, 7, 1},
		5: {3, 7, 1, 4, 5},
		7: {3, 7, 1, 4, 5, 0, 2},
		9: {3, 7, 1, 4, 5, 0, 2, 6},
	} {
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
		dirty := &State{Links: clean.Links, Labels: clean.Labels, Scores: append([]float64{}, clean.Scores...), Unlabeled: clean.Unlabeled}
		numbers := 0
		for idx := range dirty.Scores {
			if rng.Intn(3) == 0 {
				dirty.Scores[idx] = nan
			} else if dirty.Labels[idx] == 0 {
				numbers++
			}
		}
		got := (Conflict{}).Select(dirty, n, nil)
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

// gather copies the links st.Unlabeled lists into a state of their own,
// in the same order.
func gather(st *State) *State {
	out := &State{Threshold: st.Threshold}
	for _, idx := range st.Unlabeled {
		out.Links = append(out.Links, st.Links[idx])
		out.Scores = append(out.Scores, st.Scores[idx])
		out.Labels = append(out.Labels, st.Labels[idx])
	}
	return everyLink(out)
}

// TestPoolViewMatchesGather: a strategy reading the trainer's pool in
// place — labelled links left out of Unlabeled, positives among them —
// picks the same positions in the same order as it does from the copy
// of the unlabeled links the trainer used to gather for it, and the
// conflict rule agrees with its reference on that copy. A labelled
// positive is never a blocker: the conflict rule's positives are the
// inferred ones.
func TestPoolViewMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	strategies := []Strategy{Conflict{}, Conflict{CloseTol: 0.1}, Conflict{CloseTol: 0.05, Margin: 0.2}, Uncertainty{}, Uncertainty{Threshold: 0.25}, Random{}}
	admitted := 0
	for trial := 0; trial < 300; trial++ {
		n := []int{0, 1, 5, 40, 300}[rng.Intn(5)]
		view := contestedState(rng, n, func(e int) int { return e })
		view.Unlabeled = view.Unlabeled[:0]
		for idx := range view.Links {
			switch rng.Intn(4) {
			case 0: // labelled by the oracle or in L⁺
				view.Labels[idx] = []float64{0, 1, 1, math.NaN()}[rng.Intn(4)]
			default:
				view.Unlabeled = append(view.Unlabeled, idx)
			}
		}
		copied := gather(view)
		for _, k := range []int{0, 1, 5, n + 2} {
			_, byRule := referenceConflictSelect(Conflict{}, copied, k)
			admitted += byRule
			for _, s := range strategies {
				want := s.Select(copied, k, rand.New(rand.NewSource(int64(trial))))
				if c, ok := s.(Conflict); ok {
					if ref, _ := referenceConflictSelect(c, copied, k); !sameIndices(want, ref) {
						t.Fatalf("%s %+v n=%d k=%d: copy picks %v, reference %v", s.Name(), s, n, k, want, ref)
					}
				}
				if got := s.Select(view, k, rand.New(rand.NewSource(int64(trial)))); !sameIndices(got, want) {
					t.Fatalf("%s %+v n=%d k=%d, %d of %d unlabeled:\n view %v\n copy %v", s.Name(), s, n, k, len(view.Unlabeled), n, got, want)
				}
			}
		}
	}
	if admitted == 0 {
		t.Fatal("the conflict rule admitted no link in the whole sweep")
	}
}

// TestStateWithoutUnlabeledSelectsNothing: Unlabeled has no
// nil-means-everything reading; a pool with nothing unlabeled is
// nothing to query.
func TestStateWithoutUnlabeledSelectsNothing(t *testing.T) {
	st := conflictState()
	st.Unlabeled = nil
	for _, s := range []Strategy{Conflict{}, Uncertainty{}, Random{}} {
		if got := s.Select(st, 3, rand.New(rand.NewSource(1))); len(got) != 0 {
			t.Errorf("%s picked %v from a state with no unlabeled link", s.Name(), got)
		}
	}
}
