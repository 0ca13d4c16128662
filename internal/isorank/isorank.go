// Package isorank implements an IsoRank-style unsupervised network
// aligner (Singh, Xu, Berger — reference [16] of the paper): the classic
// baseline family the paper's related work positions ActiveIter against.
//
// IsoRank propagates pairwise similarity over the two social graphs,
//
//	R(i,j) = α · Σ_{u∈N(i)} Σ_{v∈N(j)} R(u,v) / (|N(u)|·|N(v)|)
//	         + (1−α) · H(i,j),
//
// where N(·) are (undirected) follow neighborhoods and H is a prior
// similarity — here the normalized joint-attribute proximity Ψ^a², so
// the baseline sees the same attribute evidence as ActiveIter but no
// labels. The fixpoint is found by power iteration; a greedy one-to-one
// matching over R yields the predicted anchors.
//
// Comparing IsoRank against the PU/active family quantifies what the
// paper's supervision buys (see experiments.RunUnsupervisedComparison).
package isorank

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/matching"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// alpha weighs structural propagation against the attribute prior
// (the IsoRank paper's favoured range); topM keeps only the M
// best-scored counterparts per user when matching, bounding the
// matching problem size.
const (
	alpha = 0.6
	topM  = 10
)

// Config controls the similarity propagation.
type Config struct {
	// Iterations caps the power iteration; default 20.
	Iterations int
	// Tol stops early when the max entry change falls below it; default
	// 1e-6.
	Tol float64
}

func (c Config) withDefaults() Config {
	if c.Iterations <= 0 {
		c.Iterations = 20
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	return c
}

// Result is a completed unsupervised alignment.
type Result struct {
	// Similarity is the converged |U¹|×|U²| similarity matrix.
	Similarity *sparse.CSR
	// Matches are the greedily selected one-to-one correspondences in
	// descending similarity order.
	Matches []hetnet.Anchor
	// Iterations actually performed.
	Iterations int
}

// Similarity runs the IsoRank power iteration and returns the converged
// |U¹|×|U²| similarity matrix without the matching step — Align's first
// half. hasAttr reports whether the pair carried any joint attribute
// evidence: when false the returned matrix was propagated from the
// dense uniform prior, which is dense in |U¹|×|U²| and so too costly at
// scale.
func Similarity(pair *hetnet.AlignedPair, cfg Config) (r *sparse.CSR, hasAttr bool, iters int, err error) {
	cfg = cfg.withDefaults()
	n1 := pair.G1.NodeCount(hetnet.User)
	n2 := pair.G2.NodeCount(hetnet.User)
	if n1 == 0 || n2 == 0 {
		return nil, false, 0, fmt.Errorf("isorank: empty user sets %d/%d", n1, n2)
	}

	// Symmetrized follow operators, W = A ∨ Aᵀ with rows scaled to sum 1
	// (NormalizedUndirected). R ← α · W1 · R · W2ᵀ averages R over
	// N(i)×N(j): every term is divided by deg(i)·deg(j), the degrees of
	// the pair being updated, where the recurrence above divides by those
	// of its neighbours.
	w1, err := NormalizedUndirected(pair.G1)
	if err != nil {
		return nil, false, 0, err
	}
	w2, err := NormalizedUndirected(pair.G2)
	if err != nil {
		return nil, false, 0, err
	}

	// Attribute prior: Ψ^a² proximity, normalized to sum 1; uniform when
	// the networks carry no attribute overlap at all.
	prior, hasAttr, err := attributePrior(pair, n1, n2)
	if err != nil {
		return nil, false, 0, err
	}

	r = prior
	w2t := SymmetricTranspose(w2)
	for it := 0; it < cfg.Iterations; it++ {
		iters = it + 1
		// R' = α · W1 R W2ᵀ + (1−α) H.
		prop := sparse.MatMulParallel(sparse.MatMulParallel(w1, r), w2t)
		next := sparse.Add(prop.Scale(alpha), prior.Scale(1-alpha))
		next = renormalize(next)
		delta := maxAbsDiff(next, r)
		r = next
		if delta < cfg.Tol {
			break
		}
	}
	return r, hasAttr, iters, nil
}

// Align runs IsoRank over the pair. No anchor labels are consulted.
func Align(pair *hetnet.AlignedPair, cfg Config) (*Result, error) {
	r, _, iters, err := Similarity(pair, cfg)
	if err != nil {
		return nil, err
	}

	// Greedy one-to-one matching over the top-M candidates per user.
	top := r.TopKPerRow(topM)
	var cands []matching.Candidate
	top.Iterate(func(i, j int, v float64) {
		cands = append(cands, matching.Candidate{I: i, J: j, Score: v})
	})
	selected := matching.Greedy(cands, 0, nil)
	matches := make([]hetnet.Anchor, len(selected))
	for k, c := range selected {
		matches[k] = hetnet.Anchor{I: c.I, J: c.J}
	}
	return &Result{Similarity: r, Matches: matches, Iterations: iters}, nil
}

// NormalizedUndirected returns the symmetrized follow adjacency with
// rows scaled to sum 1 (isolated users keep empty rows) — the neighbor-
// average propagation operator of the IsoRank recurrence.
func NormalizedUndirected(g *hetnet.Network) (*sparse.CSR, error) {
	adj, err := g.Adjacency(hetnet.Follow)
	if err != nil {
		return nil, err
	}
	// The pattern of A + Aᵀ is the symmetrized graph; a row's entry count
	// is its user's degree, so the operator reuses the pattern and only
	// the values are written, each 1/degree.
	rows, cols, rowPtr, colIdx, _ := sparse.Add(adj, adj.T()).Raw()
	val := make([]float64, len(colIdx))
	for i := 0; i < rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		w := 1 / float64(hi-lo)
		for k := lo; k < hi; k++ {
			val[k] = w
		}
	}
	return sparse.FromRaw(rows, cols, rowPtr, colIdx, val)
}

// SymmetricTranspose returns wᵀ for an operator NormalizedUndirected
// built: the pattern is its own transpose and cell (i, j) of wᵀ is w's
// (j, i), 1/deg(j) — so the transpose is w's pattern with each column's
// value, written in one pass instead of CSR.T's scatter. The index
// arrays are shared, read-only.
func SymmetricTranspose(w *sparse.CSR) *sparse.CSR {
	rows, cols, rowPtr, colIdx, val := w.Raw()
	out := make([]float64, len(val))
	for k, j := range colIdx {
		out[k] = val[rowPtr[j]]
	}
	t, err := sparse.FromRaw(cols, rows, rowPtr, colIdx, out)
	if err != nil {
		panic(fmt.Sprintf("isorank: transpose of a follow operator: %v", err))
	}
	return t
}

// attributePrior builds the Ψ^a² proximity prior, falling back to a
// uniform matrix (hasAttr=false) when no joint attributes exist.
func attributePrior(pair *hetnet.AlignedPair, n1, n2 int) (prior *sparse.CSR, hasAttr bool, err error) {
	counter, err := metadiag.NewCounter(pair)
	if err != nil {
		return nil, false, err
	}
	prox, err := counter.Proximity(schema.AttributeDiagram(hetnet.At, hetnet.Checkin))
	if err != nil {
		return nil, false, err
	}
	sm := prox.ScoreMatrix()
	if sm.NNZ() == 0 {
		// Uniform prior: every pair equally likely.
		b := sparse.NewBuilder(n1, n2)
		u := 1 / float64(n1*n2)
		for i := 0; i < n1; i++ {
			for j := 0; j < n2; j++ {
				b.Add(i, j, u)
			}
		}
		return b.Build(), false, nil
	}
	return renormalize(sm), true, nil
}

// renormalize scales a non-negative matrix to total sum 1.
func renormalize(m *sparse.CSR) *sparse.CSR {
	s := m.Sum()
	if s == 0 {
		return m
	}
	return m.Scale(1 / s)
}

// maxAbsDiff returns the max |a−b| entry difference.
func maxAbsDiff(a, b *sparse.CSR) float64 {
	diff := sparse.Add(a, b.Scale(-1))
	var mx float64
	diff.Iterate(func(i, j int, v float64) {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	})
	return mx
}
