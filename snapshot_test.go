package activeiter

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/serve"
)

// liveView is the facade-independent read side of a live result the
// snapshot must reproduce bit-identically.
type liveView struct {
	res     AlignmentResult
	matched map[int]int                    // net1 user → net2 partner (predicted anchors)
	score   func(i, j int) (float64, bool) // live raw score of a pool link
}

// TestSnapshotRoundTripAllFacades is the end-to-end property of the
// offline→online bridge: train on the tiny preset via each facade,
// BuildSnapshot → WriteSnapshot → OpenSnapshot → serve over HTTP, and
// every /v1/match and /v1/score answer must be bit-identical to the
// live in-process result; EvaluateAlignment on the loaded snapshot
// must equal the live metrics exactly.
func TestSnapshotRoundTripAllFacades(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	cands := append(append([]Anchor{}, testPos...), neg...)
	oracle := NewTruthOracle(pair)

	monoOpts := Options{Budget: 10, Seed: 7}
	shardOpts := Options{Budget: 10, Seed: 7, Partitions: 2}

	cases := []struct {
		facade string
		run    func(t *testing.T) (AlignmentResult, Options)
	}{
		{SnapshotMonolithic, func(t *testing.T) (AlignmentResult, Options) {
			a, err := New(pair, monoOpts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Align(trainPos, cands, oracle)
			if err != nil {
				t.Fatal(err)
			}
			return res, monoOpts
		}},
		{SnapshotPartitioned, func(t *testing.T) (AlignmentResult, Options) {
			pa, err := NewPartitioned(pair, shardOpts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pa.Align(trainPos, cands, oracle)
			if err != nil {
				t.Fatal(err)
			}
			return res, shardOpts
		}},
		{SnapshotDistributed, func(t *testing.T) (AlignmentResult, Options) {
			da, err := NewDistributed(pair, shardOpts, NewLoopbackTransport())
			if err != nil {
				t.Fatal(err)
			}
			res, err := da.Align(trainPos, cands, oracle)
			if err != nil {
				t.Fatal(err)
			}
			return res, shardOpts
		}},
	}

	for _, tc := range cases {
		t.Run(tc.facade, func(t *testing.T) {
			res, opts := tc.run(t)

			snap, err := BuildSnapshot(tc.facade, pair, res, opts)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Meta.Facade != tc.facade {
				t.Errorf("facade recorded as %q", snap.Meta.Facade)
			}
			if snap.Meta.FP1 != pair.G1.Fingerprint() {
				t.Error("dataset fingerprint missing or wrong")
			}

			path := filepath.Join(t.TempDir(), "align.snap")
			if err := WriteSnapshot(snap, path); err != nil {
				t.Fatal(err)
			}
			loaded, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(loaded, snap) {
				t.Fatal("snapshot did not round-trip the file")
			}
			ix, err := NewServeIndex(loaded)
			if err != nil {
				t.Fatal(err)
			}

			// Property 1: the loaded snapshot IS the result, metric for
			// metric.
			liveM := EvaluateAlignment(res, testPos, neg)
			snapM := EvaluateAlignment(ix, testPos, neg)
			if liveM != snapM {
				t.Errorf("EvaluateAlignment diverged:\n live %+v\n snap %+v", liveM, snapM)
			}

			lv := liveViewOf(t, res)
			serveAndCompare(t, ix, lv, pair, testPos, neg)
		})
	}
}

// liveViewOf adapts either facade result to the comparison shape.
func liveViewOf(t *testing.T, res AlignmentResult) *liveView {
	t.Helper()
	lv := &liveView{res: res, matched: make(map[int]int)}
	switch r := res.(type) {
	case *Result:
		for _, a := range r.PredictedAnchors() {
			lv.matched[a.I] = a.J
		}
		lv.score = func(i, j int) (float64, bool) {
			for idx, l := range r.links {
				if l.I == i && l.J == j {
					return r.inner.Scores[idx], true
				}
			}
			return 0, false
		}
	case *PartitionedResult:
		for _, a := range r.PredictedAnchors() {
			lv.matched[a.I] = a.J
		}
		lv.score = r.Score
	default:
		t.Fatalf("unexpected result type %T", res)
	}
	return lv
}

// serveAndCompare stands the full HTTP surface up over the index and
// checks every /v1/match and a pool-wide sweep of /v1/score against
// the live result.
func serveAndCompare(t *testing.T, ix *ServeIndex, lv *liveView, pair *AlignedPair, testPos, neg []Anchor) {
	t.Helper()
	store := &serve.Store{}
	store.Swap(ix)
	srv := httptest.NewServer(serve.NewHandler(store, nil, serve.HandlerOptions{}))
	defer srv.Close()

	// Every net1 user: a predicted partner must come back exactly; a
	// user with none must 404.
	n1 := pair.G1.NodeCount(hetnet.User)
	for i := 0; i < n1; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/match/1/%d", srv.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Match *struct {
				Index int32 `json:"index"`
			} `json:"match"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		wantJ, wantMatch := lv.matched[i]
		switch {
		case wantMatch && (resp.StatusCode != http.StatusOK || body.Match == nil || int(body.Match.Index) != wantJ):
			t.Fatalf("/v1/match/1/%d: status %d body %+v, want partner %d", i, resp.StatusCode, body.Match, wantJ)
		case !wantMatch && resp.StatusCode != http.StatusNotFound:
			t.Fatalf("/v1/match/1/%d: status %d for unmatched user", i, resp.StatusCode)
		}
	}

	// Every test pool link: /v1/score answers the live label, queried
	// flag and raw score bit-identically (float64 survives the JSON trip
	// by Go's round-trip encoding).
	links := append(append([]Anchor{}, testPos...), neg...)
	for _, l := range links {
		wantLabel, inPool := lv.res.Label(l.I, l.J)
		reqBody := fmt.Sprintf(`{"i":%d,"j":%d}`, l.I, l.J)
		resp, err := http.Post(srv.URL+"/v1/score", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Score    float64 `json:"score"`
			HasScore bool    `json:"has_score"`
			Label    float64 `json:"label"`
			Queried  bool    `json:"queried"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !inPool {
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("/v1/score (%d,%d): status %d for non-pool link", l.I, l.J, resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/score (%d,%d): status %d", l.I, l.J, resp.StatusCode)
		}
		if body.Label != wantLabel {
			t.Fatalf("/v1/score (%d,%d): label %v, want %v", l.I, l.J, body.Label, wantLabel)
		}
		if body.Queried != lv.res.WasQueried(l.I, l.J) {
			t.Fatalf("/v1/score (%d,%d): queried %v diverges from live", l.I, l.J, body.Queried)
		}
		if wantScore, ok := lv.score(l.I, l.J); ok && body.HasScore && body.Score != wantScore {
			t.Fatalf("/v1/score (%d,%d): score %v, want %v (bit-identical)", l.I, l.J, body.Score, wantScore)
		}
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

// TestSnapshotShardWeightsParity pins the wire plumbing: the per-shard
// weight vectors a distributed run reports over the Done frames must be
// bit-identical to the in-process partitioned run of the same plan.
func TestSnapshotShardWeightsParity(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	cands := append(append([]Anchor{}, testPos...), neg...)
	opts := Options{Budget: 10, Seed: 7, Partitions: 2}
	pa, err := NewPartitioned(pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := pa.Align(trainPos, cands, NewTruthOracle(pair))
	if err != nil {
		t.Fatal(err)
	}
	da, err := NewDistributed(pair, opts, NewLoopbackTransport())
	if err != nil {
		t.Fatal(err)
	}
	dres, err := da.Align(trainPos, cands, NewTruthOracle(pair))
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.ShardWeights) != opts.Partitions || len(dres.ShardWeights) != opts.Partitions {
		t.Fatalf("shard weights: partitioned %d, distributed %d, want %d each",
			len(pres.ShardWeights), len(dres.ShardWeights), opts.Partitions)
	}
	if !reflect.DeepEqual(pres.ShardWeights, dres.ShardWeights) {
		t.Error("distributed shard weights diverge from the in-process run")
	}
}

// TestBuildSnapshotValidation covers facade/result mismatches.
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
	if _, err := BuildSnapshot(SnapshotDistributed, pair, res, Options{}); err == nil {
		t.Error("monolithic result accepted under a distributed facade label")
	}
	if _, err := BuildSnapshot("", nil, res, Options{}); err == nil {
		t.Error("nil pair accepted")
	}
}
