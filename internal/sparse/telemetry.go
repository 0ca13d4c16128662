package sparse

import "github.com/activeiter/activeiter/internal/telemetry"

// mSpgemmFlops is the process-wide SpGEMM work counter: exact Gustavson
// multiply-add counts of every product Chain and MatMulHadamard
// evaluate. The per-product cost is a byproduct of the flop comparison
// each makes anyway, so the accounting adds one atomic op per product,
// not a matrix traversal.
var mSpgemmFlops = telemetry.Default.Counter("activeiter_spgemm_flops_total",
	"Gustavson SpGEMM multiply-adds performed by meta-diagram chain products.")
