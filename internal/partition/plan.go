// Package partition scales alignment past one monolithic training loop
// by sharding a large AlignedPair's candidate space into K overlapping
// partitions, running the existing counter→extractor→core.Train pipeline
// per partition concurrently on forked counters, and merging the
// per-partition predictions into one globally one-to-one result with the
// trainer's own score-greedy link selection (internal/matching).
//
// The approach follows "Scalable Heterogeneous Social Network Alignment
// through Synergistic Graph Partition" (Ren, Meng, Zhang): alignment
// quality is dominated by local evidence — a candidate link (i, j) is
// decided by the meta-diagram instances in the neighborhoods of i and j
// — so the candidate space can be cut along neighborhood boundaries and
// each shard aligned independently, as long as a global reconciliation
// restores the one-to-one constraint across shard borders. Partitions
// are seeded two ways at once:
//
//   - training-anchor locality: the labeled anchors are clustered by
//     farthest-point seeding over the follow graph, and every candidate
//     gravitates to the partition whose anchors are closest (BFS hops on
//     both networks), and
//   - coarse IsoRank-style similarity: a few truncated power-iteration
//     rounds of the isorank recurrence (counted on the shared base
//     counter's attribute prior) give every user a soft affinity to each
//     anchor cluster, which places candidates whose graph neighborhoods
//     are uninformative (sparse followers, isolated users).
//
// A candidate whose second-best partition affinity is within
// Config.Overlap of its best joins both shards — the overlap is what
// lets reconciliation undo a bad hard assignment at a shard border.
//
// A Plan is also the stable substrate of a multi-round active-learning
// session: the shard assignment is computed once, and between retrain
// rounds the driver appends the new oracle answers (Plan.AppendLabels —
// routed to every part whose pool contains the link) and re-splits the
// budget (Plan.Rebudget). Parts carry those answers as Prelabeled
// links, which train as fixed queried labels; PreparePart/Prepared
// split the per-shard pipeline so its label-independent half (counting,
// feature extraction) is computed once and only training re-runs as the
// label log grows.
//
// Both halves of a sharded run split once more at the point where the
// training anchors of every part are known and nothing else is:
// planning is Seed (cluster the anchors) then Assign (place the
// candidates, split the budget), and the in-process run is Begin (per
// part: fork, restrict to the part's anchors, recount) then Finish (per
// part: pool, feature fill, train; then merge). Plan and Align are those
// pairs called back to back; an executor that calls Begin between Seed
// and Assign counts while it plans.
package partition

import (
	"fmt"
	"sort"
	"sync"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/isorank"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// Config controls partition planning. The zero value of every field gets
// a usable default; K ≤ 1 plans a single monolithic partition.
type Config struct {
	// K is the number of candidate-space partitions. It is clamped to
	// the training-anchor count (every partition needs at least one
	// labeled positive for PU training to be well-posed).
	K int
	// Overlap ∈ [0,1) assigns a candidate to its runner-up partition too
	// when the runner-up affinity is at least Overlap × the best
	// affinity; default 0.85. Negative disables overlapping entirely.
	Overlap float64
}

func (c Config) withDefaults() Config {
	if c.K < 1 {
		c.K = 1
	}
	if c.Overlap == 0 {
		c.Overlap = 0.85
	} else if c.Overlap < 0 {
		c.Overlap = 1.1 // unattainable ratio: no overlap
	}
	return c
}

// Part is one candidate-space shard: the training anchors that seed it,
// the candidate links it decides, and its slice of the query budget.
type Part struct {
	Index      int
	TrainPos   []hetnet.Anchor
	Candidates []hetnet.Anchor
	Budget     int
	// Prelabeled carries oracle labels obtained in earlier rounds of a
	// multi-round session over a stable plan (see Plan.AppendLabels);
	// they train as fixed queried labels. Empty on a fresh plan.
	Prelabeled []LabeledLink
}

// Plan is a complete sharding of one alignment problem.
type Plan struct {
	Parts []Part
	// Overlapped counts candidates assigned to two partitions.
	Overlapped int
	// SimilaritySeeded reports whether the coarse similarity signal was
	// available (pairs without joint attribute evidence fall back to
	// locality-only affinity rather than paying for a dense prior).
	SimilaritySeeded bool
}

// Candidates returns the total candidate assignments across parts
// (overlapping candidates counted once per shard).
func (p *Plan) Candidates() int {
	n := 0
	for _, part := range p.Parts {
		n += len(part.Candidates)
	}
	return n
}

// WithBudget returns a copy of the plan with totalBudget re-split
// across the shards. The shard assignment itself is budget-independent,
// so callers running several methods over one fold plan once and
// re-split per method instead of re-running clustering, BFS fields, and
// the affinity scan. Anchor and candidate slices are shared (read-only)
// with the receiver.
func (p *Plan) WithBudget(totalBudget int) *Plan {
	out := &Plan{
		Parts:            make([]Part, len(p.Parts)),
		Overlapped:       p.Overlapped,
		SimilaritySeeded: p.SimilaritySeeded,
	}
	copy(out.Parts, p.Parts)
	for i := range out.Parts {
		out.Parts[i].Budget = 0
	}
	splitBudget(out.Parts, totalBudget)
	return out
}

// Planner caches the plan inputs that do not depend on the training
// fold: the symmetrized follow graphs of both networks, their
// row-normalized propagation operators, and the truncated coarse
// similarity propagation. One planner shards any number of folds,
// methods, and partition counts over the same pair without re-deriving
// them — the dominant planning cost at crawl scale. Safe for concurrent
// Plan calls.
type Planner struct {
	base       *metadiag.Counter
	adj1, adj2 [][]int32
	w1, w2     *sparse.CSR
	prior      *sparse.CSR // truncated Ψ^a² scores; nil = no attribute evidence

	simOnce sync.Once
	sim     *sparse.CSR // propagated similarity, built by the first plan that reads it
}

// NewPlanner derives the fold-independent plan inputs from the base
// counter. The Ψ^a² prior is counted on the counter's SHARED
// attribute-only layer, so the per-partition pipelines that follow
// reuse the count for free. A pair without joint attribute evidence is
// not an error — such planners seed by locality alone — but a counting
// failure is.
func NewPlanner(base *metadiag.Counter) (*Planner, error) {
	if base == nil {
		return nil, fmt.Errorf("partition: nil base counter")
	}
	pair := base.Pair()
	adj1, w1, err := undirectedNeighbors(pair.G1)
	if err != nil {
		return nil, err
	}
	adj2, w2, err := undirectedNeighbors(pair.G2)
	if err != nil {
		return nil, err
	}
	prox, err := base.Proximity(schema.AttributeDiagram(hetnet.At, hetnet.Checkin))
	if err != nil {
		return nil, fmt.Errorf("partition: coarse similarity prior: %w", err)
	}
	prior := truncatedScores(prox, coarseTopM)
	if prior.NNZ() == 0 {
		prior = nil
	} else if s := prior.Sum(); s > 0 {
		prior = prior.Scale(1 / s)
	}
	return &Planner{
		base: base,
		adj1: adj1, adj2: adj2,
		w1: w1, w2: w2,
		prior: prior,
	}, nil
}

// SeedCached is Planner.Seed on the planner kept in *cache: the
// fold-independent inputs are derived on the first request that needs
// them and reused by every later one. A K ≤ 1 request skips input
// derivation entirely — the monolithic plan needs none of it.
func SeedCached(base *metadiag.Counter, cache **Planner, trainPos []hetnet.Anchor, cfg Config) (*Seeded, error) {
	if base == nil {
		return nil, fmt.Errorf("partition: nil base counter")
	}
	if err := validateTrainPos(trainPos); err != nil {
		return nil, err
	}
	if cfg.withDefaults().K == 1 || len(trainPos) == 1 {
		return monolithicSeed(trainPos), nil
	}
	if *cache == nil {
		pl, err := NewPlanner(base)
		if err != nil {
			return nil, err
		}
		*cache = pl
	}
	return (*cache).Seed(trainPos, cfg)
}

func validateTrainPos(trainPos []hetnet.Anchor) error {
	if len(trainPos) == 0 {
		return fmt.Errorf("partition: no training anchors to seed partitions with")
	}
	return nil
}

// Seeded is the first half of a plan: the training anchors clustered
// into the groups that seed its partitions. Parts holds one entry per
// partition with Index and TrainPos final and nothing else set — all a
// part's anchor-dependent counting needs — so an executor can begin
// every part's pipeline (Begin) while Assign still decides which
// candidates each part gets.
type Seeded struct {
	Parts []Part

	pl  *Planner // nil: one monolithic part, nothing to assign by
	cfg Config
}

func monolithicSeed(trainPos []hetnet.Anchor) *Seeded {
	return &Seeded{Parts: []Part{{Index: 0, TrainPos: trainPos}}}
}

// Plan shards the candidate space into cfg.K overlapping partitions and
// splits totalBudget proportionally to shard size: Seed, then Assign.
// trainPos must be non-empty; every partition is guaranteed at least one
// training anchor. Candidate order is preserved within each partition,
// so a K=1 plan reproduces the monolithic pipeline exactly.
func (pl *Planner) Plan(trainPos, candidates []hetnet.Anchor, totalBudget int, cfg Config) (*Plan, error) {
	s, err := pl.Seed(trainPos, cfg)
	if err != nil {
		return nil, err
	}
	return s.Assign(candidates, totalBudget)
}

// Seed clusters the training anchors into at most cfg.K groups over the
// network-1 follow graph — the half of planning that fixes how many
// parts there are and which anchors each trains on.
func (pl *Planner) Seed(trainPos []hetnet.Anchor, cfg Config) (*Seeded, error) {
	cfg = cfg.withDefaults()
	if err := validateTrainPos(trainPos); err != nil {
		return nil, err
	}
	k := min(cfg.K, len(trainPos))
	if k == 1 {
		return monolithicSeed(trainPos), nil
	}
	// clusterAnchors can return fewer groups than requested (duplicate
	// anchor endpoints make farthest-point seeding run out of distinct
	// seeds); everything downstream follows the realized count.
	groups := clusterAnchors(trainPos, pl.adj1, k)
	if len(groups) == 1 {
		return monolithicSeed(trainPos), nil
	}
	parts := make([]Part, len(groups))
	for p, g := range groups {
		parts[p].Index = p
		parts[p].TrainPos = make([]hetnet.Anchor, len(g))
		for n, ai := range g {
			parts[p].TrainPos[n] = trainPos[ai]
		}
	}
	return &Seeded{Parts: parts, pl: pl, cfg: cfg}, nil
}

// Assign completes the plan: every candidate goes to the partition whose
// anchors it has the highest affinity to — BFS hop locality on both
// networks blended with the coarse similarity folded onto the anchor
// groups — and to the runner-up too when that is within cfg.Overlap of
// the best; totalBudget is then split proportionally to shard size. The
// returned plan owns copies of the seeded parts, so one Seeded can be
// assigned more than once.
func (s *Seeded) Assign(candidates []hetnet.Anchor, totalBudget int) (*Plan, error) {
	if totalBudget < 0 {
		return nil, fmt.Errorf("partition: negative budget %d", totalBudget)
	}
	parts := append([]Part(nil), s.Parts...)
	if s.pl == nil {
		parts[0].Candidates, parts[0].Budget = candidates, totalBudget
		return &Plan{Parts: parts}, nil
	}
	pl, cfg, k := s.pl, s.cfg, len(parts)

	// Per-partition hop distances on both networks from the part's anchor
	// endpoints.
	d1 := make([][]int, k)
	d2 := make([][]int, k)
	for p := range parts {
		anchors := parts[p].TrainPos
		src1, src2 := make([]int, len(anchors)), make([]int, len(anchors))
		for n, a := range anchors {
			src1[n], src2[n] = a.I, a.J
		}
		d1[p] = multiSourceBFS(pl.adj1, src1)
		d2[p] = multiSourceBFS(pl.adj2, src2)
	}

	simLeft, simRight, seeded := pl.foldSimilarity(parts)

	overlapped := 0
	wLoc := localityWeight
	if !seeded {
		wLoc = 1 // locality is the only signal
	}
	for ci, c := range candidates {
		best, second := -1, -1
		var bestAff, secondAff float64
		for p := 0; p < k; p++ {
			aff := wLoc * (invHop(d1[p], c.I) + invHop(d2[p], c.J)) / 2
			if seeded {
				aff += (1 - wLoc) * (simAt(simLeft, c.I, p, k) + simAt(simRight, c.J, p, k)) / 2
			}
			if best == -1 || aff > bestAff {
				second, secondAff = best, bestAff
				best, bestAff = p, aff
			} else if second == -1 || aff > secondAff {
				second, secondAff = p, aff
			}
		}
		if bestAff == 0 {
			// No signal at all (isolated endpoints, no similarity mass):
			// spread deterministically so coverage is preserved.
			best = ci % k
		}
		parts[best].Candidates = append(parts[best].Candidates, c)
		if second >= 0 && bestAff > 0 && secondAff >= cfg.Overlap*bestAff && secondAff > 0 {
			parts[second].Candidates = append(parts[second].Candidates, c)
			overlapped++
		}
	}

	splitBudget(parts, totalBudget)
	return &Plan{Parts: parts, Overlapped: overlapped, SimilaritySeeded: seeded}, nil
}

// undirectedNeighbors materializes the symmetrized follow adjacency of a
// network twice over: the row-normalized propagation operator shared
// with isorank (so the coarse-similarity seed propagates with identical
// semantics to the IsoRank scorer it mirrors) and neighbor lists for BFS
// derived from the operator's pattern.
func undirectedNeighbors(g *hetnet.Network) ([][]int32, *sparse.CSR, error) {
	norm, err := isorank.NormalizedUndirected(g)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]int32, norm.Rows())
	flat := make([]int32, 0, norm.NNZ()) // every list a window of one allocation
	for i := range out {
		cols, _ := norm.RowSlice(i)
		lo := len(flat)
		for _, j := range cols {
			flat = append(flat, int32(j))
		}
		out[i] = flat[lo:len(flat):len(flat)]
	}
	return out, norm, nil
}

// multiSourceBFS returns hop distances from the source set; -1 marks
// unreachable users.
func multiSourceBFS(adj [][]int32, sources []int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, len(sources))
	for _, s := range sources {
		if s >= 0 && s < len(dist) && dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return dist
}

// clusterAnchors groups the training anchors into k balanced clusters by
// farthest-point seeding plus capacity-bounded nearest-seed assignment
// over the network-1 follow graph. It returns anchor indices per group;
// every group is non-empty.
func clusterAnchors(trainPos []hetnet.Anchor, adj1 [][]int32, k int) [][]int {
	// Farthest-point seed selection, deterministic from trainPos[0].
	seeds := []int{0}
	for len(seeds) < k {
		var src []int
		for _, s := range seeds {
			src = append(src, trainPos[s].I)
		}
		dist := multiSourceBFS(adj1, src)
		bestIdx, bestDist := -1, -2
		taken := make(map[int]bool, len(seeds))
		for _, s := range seeds {
			taken[s] = true
		}
		for ai := range trainPos {
			if taken[ai] {
				continue
			}
			d := dist[trainPos[ai].I] // -1 (unreachable) sorts above all finite
			score := d
			if d == -1 {
				score = len(adj1) + 1
			}
			if score > bestDist {
				bestIdx, bestDist = ai, score
			}
		}
		if bestIdx == -1 {
			break // fewer distinct anchors than k; clamp below
		}
		seeds = append(seeds, bestIdx)
	}
	k = len(seeds)

	// Distance fields from each seed.
	fields := make([][]int, k)
	for s, ai := range seeds {
		fields[s] = multiSourceBFS(adj1, []int{trainPos[ai].I})
	}
	groups := make([][]int, k)
	capacity := (len(trainPos) + k - 1) / k
	for ai := range trainPos {
		type opt struct {
			seed, d int
		}
		opts := make([]opt, 0, k)
		for s := 0; s < k; s++ {
			d := fields[s][trainPos[ai].I]
			if d == -1 {
				d = len(adj1) + 1
			}
			opts = append(opts, opt{seed: s, d: d})
		}
		// Nearest seed with free capacity; ties break toward the lower
		// seed index (opts are seed-ordered, first win keeps it). If all
		// groups are at capacity — possible through ceil rounding — relax
		// the cap and retry.
		assigned := -1
		for assigned == -1 {
			best := -1
			for oi, o := range opts {
				if len(groups[o.seed]) >= capacity {
					continue
				}
				if best == -1 || o.d < opts[best].d {
					best = oi
				}
			}
			if best >= 0 {
				assigned = opts[best].seed
			} else {
				capacity++
			}
		}
		groups[assigned] = append(groups[assigned], ai)
	}
	// Drop empty groups (possible when k was clamped by reachability).
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// coarseAlpha, coarseTopM and coarseIters bound the similarity seed:
// the IsoRank recurrence weight, the per-row truncation that keeps every
// propagation product linear in the user count, and the number of
// propagation rounds (a planner needs coarse mass on anchor groups, not a
// converged similarity — the fine-grained signal comes from
// per-partition training, and every extra round costs two crawl-scale
// SpGEMMs). localityWeight blends BFS anchor-locality against that
// similarity in the candidate affinity.
const (
	coarseAlpha    = 0.6
	coarseTopM     = 16
	coarseIters    = 2
	localityWeight = 0.7
)

// similarity returns the propagated, truncated coarse similarity,
// computed once per planner: coarseIters rounds of
// R ← α·W1·R·W2ᵀ + (1−α)·H with H the truncated Ψ^a² prior, every
// product truncated to coarseTopM entries per row. nil when the pair
// carries no joint attribute evidence.
func (pl *Planner) similarity() *sparse.CSR {
	if pl.prior == nil {
		return nil
	}
	pl.simOnce.Do(func() {
		r := pl.prior
		w2t := pl.w2.T()
		for it := 0; it < coarseIters; it++ {
			// Truncate between the two products too: without it the second
			// SpGEMM's output is near-dense (every neighbor of a neighbor),
			// which at crawl scale costs tens of seconds per iteration. The
			// fused kernel selects each row's top entries off the SpGEMM
			// accumulator, so neither near-dense product is ever stored.
			prop := sparse.MatMulTopK(pl.w1, r, coarseTopM)
			prop = sparse.MatMulTopK(prop, w2t, coarseTopM)
			r = sparse.Add(prop.Scale(coarseAlpha), pl.prior.Scale(1-coarseAlpha)).TopKPerRow(coarseTopM)
			if s := r.Sum(); s > 0 {
				r = r.Scale(1 / s)
			}
		}
		pl.sim = r
	})
	return pl.sim
}

// foldSimilarity folds the propagated similarity mass onto the anchor
// groups: simLeft[u*k+p] accumulates the similarity of network-1 user u
// to partition p's network-2 anchor endpoints (symmetrically for
// simRight). Both are normalized to [0,1] by their global maxima.
// seeded=false when the pair carries no joint attribute evidence — the
// caller then uses locality alone.
func (pl *Planner) foldSimilarity(parts []Part) (simLeft, simRight []float64, seeded bool) {
	r := pl.similarity()
	if r == nil {
		return nil, nil, false
	}
	n1 := pl.base.Pair().G1.NodeCount(hetnet.User)
	n2 := pl.base.Pair().G2.NodeCount(hetnet.User)
	k := len(parts)
	groupOfI := make(map[int]int)
	groupOfJ := make(map[int]int)
	for p := range parts {
		for _, a := range parts[p].TrainPos {
			groupOfI[a.I] = p
			groupOfJ[a.J] = p
		}
	}
	simLeft = make([]float64, n1*k)
	simRight = make([]float64, n2*k)
	var maxL, maxR float64
	r.Iterate(func(u, v int, val float64) {
		if p, ok := groupOfJ[v]; ok {
			simLeft[u*k+p] += val
			if simLeft[u*k+p] > maxL {
				maxL = simLeft[u*k+p]
			}
		}
		if p, ok := groupOfI[u]; ok {
			simRight[v*k+p] += val
			if simRight[v*k+p] > maxR {
				maxR = simRight[v*k+p]
			}
		}
	})
	if maxL > 0 {
		for i := range simLeft {
			simLeft[i] /= maxL
		}
	}
	if maxR > 0 {
		for i := range simRight {
			simRight[i] /= maxR
		}
	}
	return simLeft, simRight, true
}

// truncatedScores builds the top-M-per-row proximity score matrix
// straight from the cached count matrix — Proximity.ScoreMatrix would
// materialize every score first, which at crawl scale means pushing
// ~10⁸ entries through a builder only to throw almost all of them away.
func truncatedScores(p *metadiag.Proximity, topM int) *sparse.CSR {
	rows, cols := p.Counts.Dims()
	var js []int
	var scores []float64
	return sparse.TopKRows(rows, cols, topM, func(i int) ([]int, []float64) {
		colIdx, vals := p.Counts.RowSlice(i)
		js, scores = js[:0], scores[:0]
		for k, j := range colIdx {
			if denom := p.RowSums[i] + p.ColSums[j]; denom > 0 {
				js = append(js, j)
				scores = append(scores, 2*vals[k]/denom)
			}
		}
		return js, scores
	})
}

// invHop maps a BFS distance to a (0,1] affinity; unreachable → 0.
func invHop(dist []int, u int) float64 {
	if u < 0 || u >= len(dist) || dist[u] < 0 {
		return 0
	}
	return 1 / float64(1+dist[u])
}

// simAt reads the folded similarity of user u to partition p.
func simAt(sim []float64, u, p, k int) float64 {
	idx := u*k + p
	if sim == nil || idx < 0 || idx >= len(sim) {
		return 0
	}
	return sim[idx]
}

// splitBudget distributes the oracle budget proportionally to shard
// candidate counts; the rounding remainder goes to the largest shards
// first (ties by index), one unit each. A shard with no candidates gets
// no budget (there is nothing to query there).
func splitBudget(parts []Part, total int) {
	if total <= 0 {
		return
	}
	sum := 0
	for i := range parts {
		sum += len(parts[i].Candidates)
	}
	if sum == 0 {
		parts[0].Budget = total
		return
	}
	assigned := 0
	order := make([]int, 0, len(parts))
	for i := range parts {
		parts[i].Budget = total * len(parts[i].Candidates) / sum
		assigned += parts[i].Budget
		if len(parts[i].Candidates) > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(parts[order[a]].Candidates) > len(parts[order[b]].Candidates)
	})
	for rem, k := total-assigned, 0; rem > 0; rem, k = rem-1, k+1 {
		parts[order[k%len(order)]].Budget++
	}
}
