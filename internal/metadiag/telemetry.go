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
	// How each Extractor.Recompute found each labelled anchor's share of
	// each stacking's marginals (anchorTerms): walked on first sight,
	// computed and stored on the second, read after that. One per anchor
	// per stacking.
	mAnchorTermsWalked = telemetry.Default.Counter("activeiter_metadiag_anchor_terms_total",
		"Anchor × stacking marginal terms per Recompute, by path.", telemetry.L("path", "walked"))
	mAnchorTermsStored = telemetry.Default.Counter("activeiter_metadiag_anchor_terms_total",
		"Anchor × stacking marginal terms per Recompute, by path.", telemetry.L("path", "stored"))
	mAnchorTermsRead = telemetry.Default.Counter("activeiter_metadiag_anchor_terms_total",
		"Anchor × stacking marginal terms per Recompute, by path.", telemetry.L("path", "read"))
	mAnchorTermsBytes = telemetry.Default.Gauge("activeiter_metadiag_anchor_terms_bytes",
		"Bytes of stored per-anchor marginal terms held by live counter families.")
)
