package matching

import "math"

// Exact solves the same selection problem as Greedy optimally: it
// returns the maximum-weight one-to-one subset of candidates where each
// candidate's weight is (2·score − 1) and only Selectable candidates —
// a finite score above threshold, so none at a NaN threshold —
// participate. Endpoints present in occ are excluded. The others are
// never read, so dropping them from cands beforehand, order kept,
// changes nothing.
//
// The solver compacts the involved endpoints, pads the weight matrix to
// allow leaving any endpoint unmatched (the doubling construction), and
// runs the O(n³) Hungarian algorithm with potentials. Intended for
// ablation studies and tests; use Greedy in the training loop.
func Exact(cands []Candidate, threshold float64, occ *Occupied) []Candidate {
	if occ == nil {
		occ = NewOccupied()
	}
	// Compact eligible candidates and endpoints.
	type edge struct {
		li, rj int // compact endpoint ids
		w      float64
		orig   int
	}
	leftIDs := make(map[int]int)
	rightIDs := make(map[int]int)
	var edges []edge
	for idx, c := range cands {
		if !Selectable(c.Score, threshold) || !occ.Free(c.I, c.J) {
			continue
		}
		li, ok := leftIDs[c.I]
		if !ok {
			li = len(leftIDs)
			leftIDs[c.I] = li
		}
		rj, ok := rightIDs[c.J]
		if !ok {
			rj = len(rightIDs)
			rightIDs[c.J] = rj
		}
		edges = append(edges, edge{li: li, rj: rj, w: 2*c.Score - 1, orig: idx})
	}
	nl, nr := len(leftIDs), len(rightIDs)
	if len(edges) == 0 {
		return nil
	}
	// Doubling construction: size nl+nr on each side. Real left i may
	// match dummy column nr+i (weight 0 = unmatched); dummy row nl+j may
	// match real column j (weight 0 = right j unmatched); dummy rows and
	// dummy columns match each other at 0.
	n := nl + nr
	// weight matrix, default 0.
	w := make([][]float64, n)
	best := make([][]int, n) // best[i][j] = candidate index or -1
	for i := range w {
		w[i] = make([]float64, n)
		best[i] = make([]int, n)
		for j := range best[i] {
			best[i][j] = -1
		}
	}
	for _, e := range edges {
		if e.w > w[e.li][e.rj] {
			w[e.li][e.rj] = e.w
			best[e.li][e.rj] = e.orig
		}
	}
	match := hungarianMax(w)
	var out []Candidate
	for i := 0; i < nl; i++ {
		j := match[i]
		if j >= 0 && j < nr && best[i][j] >= 0 && w[i][j] > 0 {
			out = append(out, cands[best[i][j]])
		}
	}
	return out
}

// hungarianMax solves the max-weight perfect assignment on a square
// matrix and returns match[row] = column. Implementation: Hungarian
// algorithm with potentials on the negated (min-cost) matrix, the
// standard O(n³) shortest-augmenting-path formulation.
func hungarianMax(w [][]float64) []int {
	n := len(w)
	// cost = -weight; potentials initialized to zero.
	const inf = math.MaxFloat64
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)   // p[j] = row matched to column j (1-based; 0 = none)
	way := make([]int, n+1) // augmenting path back-pointers
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := -w[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			match[p[j]-1] = j - 1
		}
	}
	return match
}
