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
