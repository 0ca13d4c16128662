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

// Which regime intersected each non-empty row pair of every Hadamard,
// and how many rank indexes were built for the probing one. Hadamard
// tallies its rows locally and adds once per call.
var (
	mHadamardMerge = telemetry.Default.Counter("activeiter_hadamard_rows_total",
		"Row pairs Hadamard intersected, by regime.", telemetry.L("regime", "merge"))
	mHadamardRank = telemetry.Default.Counter("activeiter_hadamard_rows_total",
		"Row pairs Hadamard intersected, by regime.", telemetry.L("regime", "rank"))
	mHadamardBlock = telemetry.Default.Counter("activeiter_hadamard_rows_total",
		"Row pairs Hadamard intersected, by regime.", telemetry.L("regime", "block"))
	mRankBuilds = telemetry.Default.Counter("activeiter_rank_index_builds_total",
		"Rank indexes built over count matrices (at most one per matrix).")
)

// mBlockProducts counts the products matMul built in the block layout.
var mBlockProducts = telemetry.Default.Counter("activeiter_sparse_block_products_total",
	"SpGEMM products built as one-byte dense blocks (at least 1/8 full, integer cells in 0..255).")

// mBlockMaterializations counts the block-layout matrices read through a
// path that needs compressed arrays (Raw, RowSlice, Scale, JointFactors):
// each builds them afresh. No training path does.
var mBlockMaterializations = telemetry.Default.Counter("activeiter_sparse_block_materializations_total",
	"Block-layout count matrices rebuilt as compressed arrays for a reader that needs them.")
