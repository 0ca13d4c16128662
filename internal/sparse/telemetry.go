package sparse

import "github.com/activeiter/activeiter/internal/telemetry"

// mSpgemmFlops is the process-wide SpGEMM work counter: exact Gustavson
// multiply-add counts of every product Chain evaluates — joint-attribute
// stacks included, which enter Chain as their two JointFactors. The
// per-product cost is a byproduct of the association scan Chain makes
// anyway, so the accounting adds one atomic op per product, not a matrix
// traversal.
var mSpgemmFlops = telemetry.Default.Counter("activeiter_spgemm_flops_total",
	"Gustavson SpGEMM multiply-adds performed by meta-diagram chain products.")

// mMarginalFlops is the same count for the products MatMulMarginals
// walks without building — a fold's anchor-path products over the
// anchors it walks rather than reads stored terms for, work the counter
// above does not see.
var mMarginalFlops = telemetry.Default.Counter("activeiter_marginal_walk_flops_total",
	"Gustavson multiply-adds of anchor-path products walked for their stacked marginals, never built.")

// How MatMul and MatMulParallel wrote each non-empty product row out:
// through the workspace's column bitset, or by sorting the row's live
// columns (a row whose span covers more than two 64-column words per
// live column). A product tallies its rows locally and adds once.
var (
	mSpgemmRowsBitset = telemetry.Default.Counter("activeiter_spgemm_rows_total",
		"Non-empty SpGEMM product rows written out, by emission.", telemetry.L("emit", "bitset"))
	mSpgemmRowsSorted = telemetry.Default.Counter("activeiter_spgemm_rows_total",
		"Non-empty SpGEMM product rows written out, by emission.", telemetry.L("emit", "sorted"))
)

// Which regime intersected each non-empty row pair of every Hadamard,
// and how many rank indexes were built for the probing one. Hadamard
// tallies its rows locally and adds once per call.
var (
	mHadamardMerge = telemetry.Default.Counter("activeiter_hadamard_rows_total",
		"Row pairs Hadamard intersected, by regime.", telemetry.L("regime", "merge"))
	mHadamardRank = telemetry.Default.Counter("activeiter_hadamard_rows_total",
		"Row pairs Hadamard intersected, by regime.", telemetry.L("regime", "rank"))
	mRankBuilds = telemetry.Default.Counter("activeiter_rank_index_builds_total",
		"Rank indexes built over count matrices (at most one per matrix).")
)
