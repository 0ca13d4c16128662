package active

import "github.com/activeiter/activeiter/internal/telemetry"

// Where Conflict.Select took each pick from: the conflict rule's
// candidate set, or the fill of highest-scored negatives that spends
// the rest of the budget. Select adds once per call.
var (
	mPicksConflict = telemetry.Default.Counter("activeiter_query_picks_total",
		"Links the conflict strategy picked for the oracle, by source.", telemetry.L("source", "conflict"))
	mPicksFill = telemetry.Default.Counter("activeiter_query_picks_total",
		"Links the conflict strategy picked for the oracle, by source.", telemetry.L("source", "fill"))
)

// Whether Conflict.Select built its endpoint tables: only when some
// negative cleared the weakest inferred positive + Margin, the one way
// the rule can admit it. Select adds once per call.
var (
	mScansSkipped = telemetry.Default.Counter("activeiter_query_conflict_scans_total",
		"Conflict strategy selections, by whether the endpoint tables were built.", telemetry.L("tables", "skipped"))
	mScansBuilt = telemetry.Default.Counter("activeiter_query_conflict_scans_total",
		"Conflict strategy selections, by whether the endpoint tables were built.", telemetry.L("tables", "built"))
)
