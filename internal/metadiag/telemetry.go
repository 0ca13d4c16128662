// Process-wide meta-diagram cache telemetry: the scrapeable lifetime
// view of what Counter.Stats reports per instance.
package metadiag

import "github.com/activeiter/activeiter/internal/telemetry"

var (
	mCacheHits = telemetry.Default.Counter("activeiter_metadiag_cache_hits_total",
		"Meta-diagram count-matrix cache hits (shared and anchored layers).")
	mCacheMisses = telemetry.Default.Counter("activeiter_metadiag_cache_misses_total",
		"Meta-diagram count evaluations — cache misses that ran the SpGEMM chain.")
	// The form each feature of each Extractor.Recompute was held in: the
	// fused-versus-fallback scrape of the anchor layer.
	mProximitiesFactored = telemetry.Default.Counter("activeiter_metadiag_proximities_total",
		"Feature proximities recomputed, by the form held.", telemetry.L("form", "factored"))
	mProximitiesMaterialised = telemetry.Default.Counter("activeiter_metadiag_proximities_total",
		"Feature proximities recomputed, by the form held.", telemetry.L("form", "materialised"))
)
