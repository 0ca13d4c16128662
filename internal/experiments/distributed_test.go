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
	// pre-installed warm counter answers every offer: no seed byte ships.
	if seeded := byMode["loopback"]; seeded.SeedShips != 0 || seeded.SeedBytes != 0 {
		t.Errorf("loopback: want 0 ships and 0 seed bytes, got %+v", seeded)
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
// sticky-session mode, whose workers prepare every shard in round 1 and
// re-run all of them warm from round 2 on.
func TestRunDistributedSessionRounds(t *testing.T) {
	pre := TinyPreset()
	pre.Partitions = 2
	points, err := RunDistributedPoints(pre, DistributedConfig{Workers: 2, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	var rounds *DistributedPoint
	for i := range points {
		if points[i].Mode == "loopback/rounds" {
			rounds = &points[i]
		}
	}
	if rounds == nil {
		t.Fatal("session mode missing")
	}
	if len(rounds.RoundDetail) != 2 {
		t.Fatalf("round details missing: %d rows", len(rounds.RoundDetail))
	}
	if r1 := rounds.RoundDetail[0]; r1.JobBytes == 0 || r1.WarmJobBytes != 0 || r1.CacheHits != 0 {
		t.Errorf("round 1 should prepare every shard cold: %+v", r1)
	}
	if r2 := rounds.RoundDetail[1]; r2.JobBytes != 0 || r2.WarmJobBytes == 0 || r2.CacheHits != rounds.Partitions {
		t.Errorf("round 2 should re-run all %d shards warm: %+v", rounds.Partitions, r2)
	}
	if rounds.CacheMisses != 0 {
		t.Errorf("healthy session missed the cache %d times", rounds.CacheMisses)
	}

	tab, err := RunDistributedWith(pre, DistributedConfig{Workers: 2, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Sections) != 2 {
		t.Fatalf("expected a per-round table section, got %d sections", len(tab.Sections))
	}
}
