package activeiter

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"github.com/activeiter/activeiter/internal/active"
)

// Property tests for the facade collapse: the three constructors share
// one pipeline, one round loop and one Options→config mapping.

// TestPartitionedRoundsMatchLoopback pins the single round loop: the
// in-process executor honours Options.Rounds exactly like a session
// over the loopback transport — same anchors, labels, queried set,
// query count and per-shard models, one report per shard per round.
func TestPartitionedRoundsMatchLoopback(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	candidates := append(append([]Anchor{}, testPos...), neg...)
	pool := append(append([]Anchor{}, trainPos...), candidates...)
	oracle := NewTruthOracle(pair)
	const rounds = 3
	cases := []struct {
		k        int
		strategy StrategyKind
	}{
		{1, StrategyConflict},
		{3, StrategyConflict},
		{3, StrategyRandom}, // seed-driven queries: pins the per-round seed rule too
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("K=%d/%s", tc.k, tc.strategy), func(t *testing.T) {
			opts := Options{Budget: 12, Seed: 3, Partitions: tc.k, Workers: 2, Rounds: rounds, Strategy: tc.strategy}
			pa, err := NewPartitioned(pair, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pa.Align(trainPos, candidates, oracle)
			if err != nil {
				t.Fatal(err)
			}
			da, err := NewDistributed(pair, opts, NewLoopbackTransport())
			if err != nil {
				t.Fatal(err)
			}
			got, err := da.Align(trainPos, candidates, oracle)
			if err != nil {
				t.Fatal(err)
			}
			assertSameAsPartitioned(t, got, want, pool)
			if !reflect.DeepEqual(got.QueriedLabels(), want.QueriedLabels()) {
				t.Errorf("queried labels diverge:\n loopback  %v\n in-process %v", got.QueriedLabels(), want.QueriedLabels())
			}
			if !reflect.DeepEqual(got.ShardWeights, want.ShardWeights) {
				t.Errorf("shard weights diverge")
			}
			if want.QueryCount() != opts.Budget {
				t.Errorf("in-process run spent %d queries over %d rounds, want the whole budget %d", want.QueryCount(), rounds, opts.Budget)
			}
			shards := len(want.ShardWeights)
			if len(want.Reports) != shards*rounds || len(got.Reports) != shards*rounds {
				t.Fatalf("reports: in-process %d, loopback %d, want %d shards × %d rounds", len(want.Reports), len(got.Reports), shards, rounds)
			}
			for i := range want.Reports {
				w, g := want.Reports[i], got.Reports[i]
				w.Elapsed, g.Elapsed = 0, 0
				if w != g {
					t.Errorf("report %d: in-process %+v, loopback %+v", i, w, g)
				}
			}
			if pa.Metrics() != nil {
				t.Errorf("in-process run reports a transport audit: %+v", pa.Metrics())
			}
		})
	}
}

// TestAlignPrelabeledFilterGolden pins AlignPrelabeled's label filter
// through the reroute onto the shared part pipeline: a prelabel on a
// trainPos link is skipped, the first of two claims on one link wins,
// and a link absent from candidates joins the pool. The golden values
// were captured from the parent commit's private pool assembly.
func TestAlignPrelabeledFilterGolden(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	absent := neg[len(neg)-1]
	cands := append(append([]Anchor{}, testPos...), neg[:len(neg)-1]...)
	pre := []WeightedLabel{
		{Link: trainPos[0], Label: 0, Confidence: 0.9}, // contradicts ground truth: skipped
		{Link: testPos[0], Label: 1, Confidence: 0.8},  // first claim wins
		{Link: testPos[0], Label: 0, Confidence: 0.9},  // duplicate claim: dropped
		{Link: neg[0], Label: 0, Confidence: 1},
		{Link: absent, Label: 0, Confidence: 0.7}, // not a candidate: added to the pool
		{Link: testPos[1], Label: 1, Confidence: 1},
	}
	al, err := New(pair, Options{Budget: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := al.AlignPrelabeled(trainPos, cands, NewTruthOracle(pair), pre)
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := res.Label(trainPos[0].I, trainPos[0].J); !ok || l != 1 {
		t.Errorf("trainPos link overruled by a prelabel: label %v/%v", l, ok)
	}
	if res.WasQueried(trainPos[0].I, trainPos[0].J) {
		t.Error("trainPos link flagged as queried")
	}
	if l, _ := res.Label(testPos[0].I, testPos[0].J); l != 0.8 {
		t.Errorf("duplicate claim: label %v, want the first claim's 0.8", l)
	}
	if l, ok := res.Label(absent.I, absent.J); !ok || math.Abs(l-0.3) > 1e-12 || !res.WasQueried(absent.I, absent.J) {
		t.Errorf("absent link: label %v/%v queried %v, want 0.3 in the pool, queried", l, ok, res.WasQueried(absent.I, absent.J))
	}

	h := fnv.New64a()
	queried := 0
	for _, l := range append(append([]Anchor{}, trainPos...), append(cands, absent)...) {
		label, ok := res.Label(l.I, l.J)
		q := res.WasQueried(l.I, l.J)
		if q {
			queried++
		}
		fmt.Fprintf(h, "%d,%d,%x,%v,%v;", l.I, l.J, math.Float64bits(label), ok, q)
	}
	got := fmt.Sprintf("queries=%d queried=%d predicted=%d pool=%016x",
		res.QueryCount(), queried, len(res.PredictedAnchors()), h.Sum64())
	const want = "queries=6 queried=10 predicted=26 pool=dcb149b35fd8ecf7"
	if got != want {
		t.Errorf("AlignPrelabeled diverges from the parent commit:\n got  %s\n want %s", got, want)
	}
}

// TestOptionsSingleMapping walks every FeatureSet × StrategyKind value
// through the one Options→training mapping and checks it lands on the
// diagram library and strategy type the per-facade switches used to
// pick; an unknown strategy is rejected by every constructor.
func TestOptionsSingleMapping(t *testing.T) {
	features := []struct {
		set  FeatureSet
		name string
		n    int
	}{
		{FullFeatures, "full", 31},
		{PathFeatures, "paths", 6},
		{ExtendedFeatures, "extended", 58},
	}
	strategies := []struct {
		kind StrategyKind
		name string
		want active.Strategy
	}{
		{"", "conflict", active.Conflict{}},
		{StrategyConflict, "conflict", active.Conflict{}},
		{StrategyRandom, "random", active.Random{}},
		{StrategyUncertainty, "uncertainty", active.Uncertainty{}},
	}
	for _, f := range features {
		for _, s := range strategies {
			opts := Options{Features: f.set, Strategy: s.kind, C: 2, BatchSize: 7, Seed: 9, ExactSelection: true, Threshold: Ptr(0.4)}
			cfg := opts.trainConfig()
			if cfg.FeatureSet != f.name || cfg.Strategy != s.name {
				t.Errorf("%v/%q: wire names %q/%q, want %q/%q", f.set, s.kind, cfg.FeatureSet, cfg.Strategy, f.name, s.name)
			}
			train, err := opts.resolve()
			if err != nil {
				t.Fatalf("%v/%q: %v", f.set, s.kind, err)
			}
			if len(train.Features) != f.n {
				t.Errorf("%v: %d features, want %d", f.set, len(train.Features), f.n)
			}
			if reflect.TypeOf(train.Core.Strategy) != reflect.TypeOf(s.want) {
				t.Errorf("%q: strategy %T, want %T", s.kind, train.Core.Strategy, s.want)
			}
			c := train.Core
			if c.C != 2 || c.BatchSize != 7 || c.Seed != 9 || !c.ExactSelection || c.Threshold == nil || *c.Threshold != 0.4 {
				t.Errorf("%v/%q: scalar fields lost in the mapping: %+v", f.set, s.kind, c)
			}
		}
	}

	pair, _, _, _ := testFixture(t)
	bad := Options{Strategy: "bogus"}
	if _, err := New(pair, bad); err == nil {
		t.Error("New accepted an unknown strategy")
	}
	if _, err := NewPartitioned(pair, bad); err == nil {
		t.Error("NewPartitioned accepted an unknown strategy")
	}
	if _, err := NewDistributed(pair, bad, NewLoopbackTransport()); err == nil {
		t.Error("NewDistributed accepted an unknown strategy")
	}
}
