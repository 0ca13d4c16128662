package experiments

import (
	"testing"
)

// The distributed experiment's whole point: every execution mode of the
// same shard plan produces the same alignment.
func TestRunDistributedModesAgree(t *testing.T) {
	pre := TinyPreset()
	pre.Partitions = 2
	points, err := RunDistributedPoints(pre, DistributedConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want in-process + loopback", len(points))
	}
	ref := points[0]
	if ref.Mode != "in-process" {
		t.Fatalf("first point is %q, want in-process", ref.Mode)
	}
	byMode := map[string]DistributedPoint{}
	for _, p := range points[1:] {
		byMode[p.Mode] = p
		if p.F1 != ref.F1 || p.Precision != ref.Precision || p.Recall != ref.Recall {
			t.Errorf("%s diverged from in-process: F1 %v vs %v", p.Mode, p.F1, ref.F1)
		}
		if p.Queries != ref.Queries {
			t.Errorf("%s spent %d queries, in-process %d", p.Mode, p.Queries, ref.Queries)
		}
		if p.JobBytes <= 0 {
			t.Errorf("%s shipped no job bytes", p.Mode)
		}
	}
	// Loopback workers share the coordinator's process, so the
	// pre-installed warm counter answers every SeedRef: negotiation
	// bytes flow, but no seed body ships.
	if seeded := byMode["loopback"]; seeded.SeedShips != 0 || seeded.SeedBytes <= 0 {
		t.Errorf("loopback: want 0 ships with non-zero negotiation bytes, got %+v", seeded)
	}
	tab, err := RunDistributedWith(pre, DistributedConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Sections) != 1 || len(tab.Sections[0].Rows) != 2 {
		t.Fatalf("unexpected table shape: %+v", tab)
	}
}

// TestRunDistributedSessionRounds: with Rounds > 1 the runner adds the
// sticky-session modes; the delta mode must produce the full-reship
// mode's exact alignment while shipping no full jobs (only JobRef
// deltas) from round 2 on.
func TestRunDistributedSessionRounds(t *testing.T) {
	pre := TinyPreset()
	pre.Partitions = 2
	points, err := RunDistributedPoints(pre, DistributedConfig{Workers: 2, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]DistributedPoint{}
	for _, p := range points {
		byMode[p.Mode] = p
	}
	full, ok := byMode["loopback/rounds-full"]
	if !ok {
		t.Fatal("full-reship session mode missing")
	}
	delta, ok := byMode["loopback/rounds-delta"]
	if !ok {
		t.Fatal("delta session mode missing")
	}
	if delta.F1 != full.F1 || delta.Precision != full.Precision || delta.Recall != full.Recall {
		t.Errorf("delta session diverged from full re-ship: F1 %v vs %v", delta.F1, full.F1)
	}
	if delta.Queries != full.Queries {
		t.Errorf("delta session spent %d queries, full re-ship %d", delta.Queries, full.Queries)
	}
	if delta.CacheHits == 0 || delta.DeltaBytes == 0 {
		t.Errorf("delta session cache audit empty: hits=%d deltaBytes=%d", delta.CacheHits, delta.DeltaBytes)
	}
	if full.CacheHits != 0 || full.DeltaBytes != 0 {
		t.Errorf("full re-ship session used the cache: %+v", full)
	}
	if len(delta.RoundDetail) != 2 || len(full.RoundDetail) != 2 {
		t.Fatalf("round details missing: %d/%d rows", len(delta.RoundDetail), len(full.RoundDetail))
	}
	if r2 := delta.RoundDetail[1]; r2.JobBytes != 0 || r2.DeltaBytes == 0 {
		t.Errorf("delta round 2 shipped %d full-job bytes, %d delta bytes", r2.JobBytes, r2.DeltaBytes)
	}
	if r2 := full.RoundDetail[1]; r2.JobBytes == 0 {
		t.Error("full re-ship round 2 shipped no job bytes")
	}
	// The headline acceptance number: round-2 delta traffic under half
	// of what full re-ship pays.
	if delta.RoundDetail[1].DeltaBytes*2 > full.RoundDetail[1].JobBytes {
		t.Errorf("round 2 delta %d bytes vs full %d bytes: less than 2x saving",
			delta.RoundDetail[1].DeltaBytes, full.RoundDetail[1].JobBytes)
	}

	tab, err := RunDistributedWith(pre, DistributedConfig{Workers: 2, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Sections) != 2 {
		t.Fatalf("expected a per-round table section, got %d sections", len(tab.Sections))
	}
}
