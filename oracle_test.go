package activeiter

import (
	"reflect"
	"testing"
)

// The honest-panel property, mirroring TestTracingDoesNotPerturbResults:
// an OracleConfig whose pool is entirely honest labelers must be
// invisible — every facade aligns bit-identically to the same run
// querying the truth oracle directly, and the panel's ledger shows the
// queries with no contradiction (checkPanel).

// honestConfig is an all-honest panel: 5 labelers, R=3.
func honestConfig() *OracleConfig {
	return &OracleConfig{Honest: 5, Replicas: 3, Seed: 42}
}

func TestHonestPanelBitIdenticalAligner(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	c := &chainCase{pair: pair, trainPos: trainPos, testPos: testPos, neg: neg, honest: true}
	run := func(opts Options) *PartitionedResult {
		al, err := New(pair, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := al.Align(trainPos, c.candidates(), NewTruthOracle(pair))
		if err != nil {
			t.Fatal(err)
		}
		checkPanel(t, c, "monolithic", opts, al.Panel(), res.QueryCount(), true)
		return res
	}
	opts := Options{Budget: 20, Seed: 1}
	want := run(opts)
	opts.OracleConfig = honestConfig()
	got := run(opts)
	if got.QueryCount() != want.QueryCount() || !reflect.DeepEqual(got.Entries(), want.Entries()) {
		t.Error("an honest panel aligns differently from the truth oracle")
	}
}

func TestHonestPanelBitIdenticalPartitioned(t *testing.T) {
	honestPanelSharded(t, Options{Budget: 20, Seed: 1, Partitions: 2, Workers: 2}, nil)
}

func TestHonestPanelBitIdenticalDistributed(t *testing.T) {
	// Rounds: 2 covers the session path — the panel's answers travel as
	// label deltas to warm workers between rounds.
	honestPanelSharded(t, Options{Budget: 20, Seed: 1, Partitions: 2, Workers: 2, Rounds: 2}, NewLoopbackTransport())
}

// honestPanelSharded runs opts on one sharded executor under the truth
// oracle and under an honest panel; overlapping shards may re-query a
// shared link, so the panel sees at most QueryCount distinct queries.
func honestPanelSharded(t *testing.T, opts Options, tr ShardTransport) {
	_, want := alignOn(t, opts, tr)
	opts.OracleConfig = honestConfig()
	sa, got := alignOn(t, opts, tr)
	sameSharded(t, "honest panel vs truth", got, want)
	checkPanel(t, &chainCase{honest: true}, "honest panel", opts, sa.Panel(), got.QueryCount(), false)
}

// AlignPrelabeled fixes an earlier panel's weighted labels into the
// pool: the links carry their panel labels, count as queried, and spend
// none of this run's budget — in one part, and in every part of a
// sharded run, in process or over the wire alike.
func TestAlignPrelabeledFixesPanelLabels(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	cands := append(append([]Anchor{}, testPos...), neg...)

	// Harvest weighted labels from a standalone honest panel over a few
	// candidate links.
	panel, err := NewOraclePanel(*honestConfig(), NewTruthOracle(pair))
	if err != nil {
		t.Fatal(err)
	}
	asked := cands[:6]
	truth := NewTruthOracle(pair)
	for _, l := range asked {
		panel.Label(l)
	}
	pre := panel.WeightedLabels()
	if len(pre) != len(asked) {
		t.Fatalf("%d weighted labels for %d queries", len(pre), len(asked))
	}

	results := map[string]*PartitionedResult{}
	for _, run := range []struct {
		name string
		opts Options
		tr   ShardTransport
	}{
		{"one part", Options{Seed: 1}, nil},
		{"K=2", Options{Seed: 1, Partitions: 2}, nil},
		{"K=2 loopback", Options{Seed: 1, Partitions: 2}, NewLoopbackTransport()},
	} {
		al, err := newSharded(pair, run.opts, run.tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := al.AlignPrelabeled(trainPos, cands, nil, pre)
		if err != nil {
			t.Fatal(err)
		}
		if res.QueryCount() != 0 {
			t.Fatalf("%s: prelabeled links consumed budget: QueryCount = %d", run.name, res.QueryCount())
		}
		for _, wl := range pre {
			if !res.WasQueried(wl.Link.I, wl.Link.J) {
				t.Fatalf("%s: prelabeled link (%d,%d) not flagged as queried", run.name, wl.Link.I, wl.Link.J)
			}
			got, ok := res.Label(wl.Link.I, wl.Link.J)
			if !ok || got != truth.Label(wl.Link) {
				t.Fatalf("%s: prelabeled link (%d,%d): label %v, want ground truth %v", run.name, wl.Link.I, wl.Link.J, got, truth.Label(wl.Link))
			}
		}
		results[run.name] = res
	}
	sameSharded(t, "prelabeled K=2 over loopback", results["K=2 loopback"], results["K=2"])
}
