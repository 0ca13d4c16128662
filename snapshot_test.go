package activeiter

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// TestSnapshotRoundTripAllFacades is the end-to-end property of the
// offline→online bridge: train on the tiny preset via each facade,
// BuildSnapshot → WriteSnapshot → OpenSnapshot (snapshotOf checks the
// round trip, the index against the live result and EvaluateAlignment),
// then serve it: every /v1/match and pool /v1/score answer must be the
// live result's.
func TestSnapshotRoundTripAllFacades(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	c := &chainCase{pair: pair, trainPos: trainPos, testPos: testPos, neg: neg}
	for _, facade := range []string{SnapshotMonolithic, SnapshotPartitioned, SnapshotDistributed} {
		t.Run(facade, func(t *testing.T) {
			opts := Options{Budget: 10, Seed: 7, Partitions: 2}
			var res *PartitionedResult
			switch facade {
			case SnapshotMonolithic:
				opts.Partitions = 0
				a, err := New(pair, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res, err = a.Align(trainPos, c.candidates(), NewTruthOracle(pair)); err != nil {
					t.Fatal(err)
				}
			case SnapshotPartitioned:
				_, res = alignOn(t, opts, nil)
			default:
				_, res = alignOn(t, opts, NewLoopbackTransport())
			}
			snap := snapshotOf(t, c, facade, res, opts)
			if snap.Meta.Facade != facade || snap.Meta.FP1 != pair.G1.Fingerprint() {
				t.Errorf("meta records facade %q, dataset fingerprint %v", snap.Meta.Facade, snap.Meta.FP1)
			}
			h := handlerOver(t, snap, "")
			matched := map[int]int{}
			for _, a := range res.PredictedAnchors() {
				matched[a.I] = a.J
			}
			for i := 0; i < pair.G1.NodeCount(User); i++ {
				ans := chainRequest{method: http.MethodGet, path: fmt.Sprintf("/v1/match/1/%d", i)}.send(h)
				var body struct {
					Match *struct {
						Index int32 `json:"index"`
					} `json:"match"`
				}
				_ = json.Unmarshal([]byte(ans.body), &body) // a 404's error body leaves Match nil
				j, ok := matched[i]
				if ok != (ans.status == http.StatusOK) || (ok && (body.Match == nil || int(body.Match.Index) != j)) {
					t.Fatalf("/v1/match/1/%d: %v, want partner %d (%v)", i, ans, j, ok)
				}
			}
			for _, l := range c.candidates() {
				ans := chainRequest{http.MethodPost, "/v1/score", fmt.Sprintf(`{"i":%d,"j":%d}`, l.I, l.J)}.send(h)
				var body struct {
					Label   float64 `json:"label"`
					Queried bool    `json:"queried"`
				}
				_ = json.Unmarshal([]byte(ans.body), &body)
				label, inPool := res.Label(l.I, l.J)
				if inPool != (ans.status == http.StatusOK) || (inPool && (body.Label != label || body.Queried != res.WasQueried(l.I, l.J))) {
					t.Fatalf("/v1/score (%d,%d): %v, want label %v in pool %v", l.I, l.J, ans, label, inPool)
				}
			}
		})
	}
}

// A one-part artifact keeps every prelabel as its live result reads it,
// soft labels included: the merge reconciles only YES answers, so an
// earlier panel's 0.8 is served as 0.8, not as a 0.
func TestSnapshotKeepsSoftPrelabels(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	c := &chainCase{pair: pair, trainPos: trainPos, testPos: testPos, neg: neg}
	opts := Options{Seed: 1}
	al, err := New(pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	pre := []WeightedLabel{{Link: neg[0], Label: 1, Confidence: 0.8}, {Link: neg[1], Label: 0, Confidence: 0.7}, {Link: testPos[0], Label: 1, Confidence: 1}}
	res, err := al.AlignPrelabeled(trainPos, c.candidates(), nil, pre)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, c, SnapshotMonolithic, res, opts) // the index answers every live label
	if len(snap.Labels) != len(pre) {
		t.Errorf("label log holds %d entries, want the %d prelabels", len(snap.Labels), len(pre))
	}
}

// TestSnapshotShardWeightsParity pins the wire plumbing: the per-shard
// weight vectors a distributed run reports over the Done frames must be
// bit-identical to the in-process partitioned run of the same plan.
func TestSnapshotShardWeightsParity(t *testing.T) {
	opts := Options{Budget: 10, Seed: 7, Partitions: 2}
	_, pres := alignOn(t, opts, nil)
	_, dres := alignOn(t, opts, NewLoopbackTransport())
	if len(pres.ShardWeights) != opts.Partitions || !reflect.DeepEqual(pres.ShardWeights, dres.ShardWeights) {
		t.Errorf("shard weights: partitioned %d, distributed %d (want %d each), or they diverge",
			len(pres.ShardWeights), len(dres.ShardWeights), opts.Partitions)
	}
}

// TestSnapshotPredictorBitIdentical pins the rescoring path: a feature
// vector scored by the live result's Predictor and by the served
// snapshot must produce the same bits.
func TestSnapshotPredictorBitIdentical(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	cands := append(append([]Anchor{}, testPos...), neg...)
	opts := Options{Seed: 3}
	a, err := New(pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Align(trainPos, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := BuildSnapshot("", pair, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewServeIndex(snap)
	if err != nil {
		t.Fatal(err)
	}
	live, err := res.Predictor(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range testPos[:5] {
		x, err := a.FeatureVector(l.I, l.J)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ix.Rescore(-1, x)
		if err != nil {
			t.Fatal(err)
		}
		if want := live.Score(x); got != want {
			t.Errorf("rescore (%d,%d) = %v, want live %v", l.I, l.J, got, want)
		}
	}
}

// TestBuildSnapshotValidation covers facade/options mismatches.
func TestBuildSnapshotValidation(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	cands := append(append([]Anchor{}, testPos...), neg...)
	a, err := New(pair, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Align(trainPos, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSnapshot(SnapshotMonolithic, pair, res, Options{Partitions: 2}); err == nil {
		t.Error("a multi-part run accepted under the monolithic facade label")
	}
	if _, err := BuildSnapshot("sharded", pair, res, Options{}); err == nil {
		t.Error("unknown facade label accepted")
	}
	if _, err := BuildSnapshot("", nil, res, Options{}); err == nil {
		t.Error("nil pair accepted")
	}
}
