// Telemetry bridge: the distrib fabric's process-wide counters and its
// component logger. The per-run *Metrics audit stays the API for
// callers that want one run's exact numbers; these counters are the
// scrapeable lifetime totals a fleet monitor reads off /metricsz
// (-metrics-listen on experiments and workers).
package distrib

import (
	"github.com/activeiter/activeiter/internal/telemetry"
)

var (
	logger = telemetry.Logger("distrib")

	mRetries     = telemetry.Default.Counter("activeiter_distrib_retries_total", "Shard re-dispatches after failed attempts.")
	mFallbacks   = telemetry.Default.Counter("activeiter_distrib_fallbacks_total", "Shards degraded to the in-process loopback path.")
	mQuarantines = telemetry.Default.Counter("activeiter_distrib_quarantines_total", "Workers benched by the health board.")
	mCacheHits   = telemetry.Default.Counter("activeiter_distrib_cache_hits_total", "Jobs a worker re-ran warm on a prepared shard it held.")
	mCacheMisses = telemetry.Default.Counter("activeiter_distrib_cache_misses_total", "Jobs sent back to their last slot that the worker prepared cold.")
	mQueries     = telemetry.Default.Counter("activeiter_distrib_oracle_queries_total", "Oracle round-trips answered (including retried attempts).")
	mJobBytes    = telemetry.Default.Counter("activeiter_distrib_job_bytes_total", "Job frame bytes of jobs workers prepared cold (successful attempts).")
	mWarmBytes   = telemetry.Default.Counter("activeiter_distrib_warm_job_bytes_total", "Job frame bytes of jobs workers re-ran warm (successful attempts).")
	mSeedBytes   = telemetry.Default.Counter("activeiter_distrib_seed_bytes_total", "Warm-counter Seed frame bytes shipped.")
	mSeedShips   = telemetry.Default.Counter("activeiter_distrib_seed_ships_total", "Connections that received a full seed body.")
	mResultBytes = telemetry.Default.Counter("activeiter_distrib_result_bytes_total", "Bytes read back from workers.")
)

// publish folds one completed run's (or round's) audit into the
// process-wide telemetry counters. Called once per Coordinator.Run and
// once per Session.Run round — never on cumulative session totals, so
// nothing double-counts.
func (m *Metrics) publish() {
	if m == nil {
		return
	}
	mRetries.Add(int64(m.Retries))
	mFallbacks.Add(int64(m.Fallbacks))
	mCacheHits.Add(int64(m.CacheHits))
	mCacheMisses.Add(int64(m.CacheMisses))
	mQueries.Add(int64(m.Queries))
	mJobBytes.Add(m.JobBytes)
	mWarmBytes.Add(m.DeltaBytes)
	mSeedBytes.Add(m.SeedBytes)
	mSeedShips.Add(int64(m.SeedShips))
	mResultBytes.Add(m.ResultBytes)
}

// childTracer builds the worker-side tracer for one job, continuing the
// coordinator's trace. Zero trace ID means tracing is off — every span
// call on the resulting nil tracer is a no-op pointer compare.
func childTracer(traceID, spanID uint64) *telemetry.Tracer {
	if traceID == 0 {
		return nil
	}
	return telemetry.NewChildTracer("worker", traceID, spanID)
}

// wireSpans flattens a job's recorded spans for the Done frame tail.
func wireSpans(tr *telemetry.Tracer) []WireSpan {
	spans := tr.Spans()
	if len(spans) == 0 {
		return nil
	}
	out := make([]WireSpan, len(spans))
	for i, sp := range spans {
		out[i] = WireSpan{ID: sp.ID, Parent: sp.Parent, Name: sp.Name, StartNS: sp.Start, EndNS: sp.End}
	}
	return out
}

// ingestWorkerSpans folds the worker-side spans a Done frame carried
// into the run's tracer, on the attempt's track so they nest under the
// coordinator's attempt span in the rendered trace. The spans' parent
// IDs are the wire-propagated coordinator span IDs, so lineage survives
// the process boundary.
func ingestWorkerSpans(tr *telemetry.Tracer, track string, spans []WireSpan) {
	if tr == nil {
		return
	}
	for _, ws := range spans {
		tr.Add(telemetry.SpanData{
			ID:     ws.ID,
			Parent: ws.Parent,
			Name:   ws.Name,
			Proc:   "worker",
			Track:  track,
			Start:  ws.StartNS,
			End:    ws.EndNS,
			Args:   []telemetry.Label{telemetry.L("origin", "worker")},
		})
	}
}
