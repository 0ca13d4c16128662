package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/activeiter/activeiter/internal/fleet"
	"github.com/activeiter/activeiter/internal/serve"
	"github.com/activeiter/activeiter/internal/setsync"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// probeCalls is how many in-process calls a per-call timing averages
// over; single index lookups are far below the clock's resolution.
const probeCalls = 20000

// probe is the traced half of a request→answer run: client-side
// request spans against the live servers, then every layer on the
// workload's path timed in process on the served artifact.
func (fx *serveFixture) probe(ctx context.Context, e *env, d *runDetail) error {
	pl := d.PerLayer
	for k, v := range d.Extra {
		pl[k] = v
	}

	// One client, closed loop: a stretch of bare requests, then the same
	// stretch with a span around every request.
	probeFor := min(500*time.Millisecond, e.measureFor()/5)
	serial := func(tr tracer) []float64 {
		var lat []float64
		deadline := time.Now().Add(probeFor)
		for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
			r := &fx.ring[k%len(fx.ring)]
			lat = append(lat, tr.span("serve.request", 0, func(uint64) {
				if status, _, err := do(fx.client, fx.base, r); err != nil || status != r.wantStatus {
					d.violate("probe request %s answered %d (%v)", r.path, status, err)
				}
			}))
		}
		return lat
	}
	plain, traced := serial(tracer{}), serial(e.tr)
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("the span-overhead phases completed no request")
	}
	pl.set("telemetry.trace_overhead_ratio", median(traced)/median(plain), "ratio")

	if err := fx.probeSnapshot(e, pl); err != nil {
		return err
	}
	if err := fx.probeIndex(pl); err != nil {
		return err
	}
	rss := 0.0
	for _, p := range fx.servers {
		if p.name == "alignd" {
			rss += peakRSSMB(p.cmd.Process.Pid)
		}
	}
	pl.set("serve.alignd_peak_rss_mb", rss, "MB")
	if fx.name == "fleet_churn" {
		return fx.probeFleet(ctx, probeFor, pl)
	}
	return nil
}

// probeSnapshot times the artifact codec on the served artifact.
func (fx *serveFixture) probeSnapshot(e *env, pl metrics) error {
	p := fx.parent
	var err error
	pl.set("snapshot.build_s", timeIt(func() {
		meta := p.Meta
		_, err = snapshot.Build(fx.data.pair, meta, p.Model, append([]snapshot.PoolLink(nil), p.Pool...),
			append([]snapshot.Match(nil), p.Matches...), append([]snapshot.QueriedLabel(nil), p.Labels...), p.TopK)
	}), "s")
	if err != nil {
		return err
	}
	path := filepath.Join(e.tmpDir, "probe.snap")
	pl.set("snapshot.write_s", timeIt(func() { err = p.WriteFile(path) }), "s")
	if err != nil {
		return err
	}
	pl.set("snapshot.read_s", timeIt(func() { _, err = snapshot.OpenFile(path) }), "s")
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	pl.set("snapshot.bytes", float64(st.Size()), "B")
	pl.set("snapshot.bytes_per_link", float64(st.Size())/float64(max(len(p.Pool), 1)), "B")
	pl.set("snapshot.fingerprint_s", timeIt(func() { _, err = p.Fingerprint() }), "s")
	return err
}

// probeIndex times the index build, the three Index calls and the
// three handler paths, and splits the served latency into handler time
// and the HTTP leg around it.
func (fx *serveFixture) probeIndex(pl metrics) error {
	var ix *serve.Index
	var err error
	pl.set("serve.index_build_s", timeIt(func() { ix, err = serve.NewIndex(fx.parent) }), "s")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	users := make([]int32, probeCalls)
	links := make([]snapshot.PoolLink, probeCalls)
	for i := range users {
		users[i] = int32(rng.Intn(len(fx.parent.Meta.Users1)))
		links[i] = fx.parent.Pool[rng.Intn(len(fx.parent.Pool))]
	}
	perCall := func(fn func(i int)) float64 {
		return timeIt(func() {
			for i := 0; i < probeCalls; i++ {
				fn(i)
			}
		}) / probeCalls * 1e9
	}
	pl.set("serve.match_ns", perCall(func(i int) { ix.MatchFor(1, users[i]) }), "ns")
	pl.set("serve.candidates_ns", perCall(func(i int) { ix.CandidatesFor(1, users[i], 5) }), "ns")
	pl.set("serve.score_ns", perCall(func(i int) { ix.PoolScore(links[i].I, links[i].J) }), "ns")

	// Handler time per request kind, and over the workload's own mix.
	byKind := map[string][]float64{}
	var mix []float64
	for i := 0; i < probeCalls/4; i++ {
		r := &fx.ring[i%len(fx.ring)]
		us := timeIt(func() { reference(fx.refs[0], r) }) * 1e6
		mix = append(mix, us)
		switch {
		case strings.HasPrefix(r.path, "/v1/match/"):
			byKind["match"] = append(byKind["match"], us)
		case strings.HasPrefix(r.path, "/v1/candidates/"):
			byKind["candidates"] = append(byKind["candidates"], us)
		default:
			byKind["score"] = append(byKind["score"], us)
		}
	}
	for kind, us := range byKind {
		pl.set("serve.handler_"+kind+"_us", median(us), "us")
	}
	pl.set("serve.http_leg_us", pl["req_p50_us"].Value-median(mix), "us")
	return nil
}

// probeFleet times the split/merge codec, the router's two routing
// paths in process against the live shards, what the hop through alignr
// costs over asking the owning alignd directly, and the setsync
// decomposition.
func (fx *serveFixture) probeFleet(ctx context.Context, probeFor time.Duration, pl metrics) error {
	var shards []*snapshot.Snapshot
	var err error
	pl.set("snapshot.split_s", timeIt(func() { shards, err = snapshot.Split(fx.parent, fx.ranges) }), "s")
	if err != nil {
		return err
	}
	pl.set("snapshot.merge_s", timeIt(func() { _, err = snapshot.Merge(shards) }), "s")
	if err != nil {
		return err
	}
	pl.set("setsync.decompose_s", timeIt(func() { _, err = setsync.Decompose(fx.parent) }), "s")
	if err != nil {
		return err
	}

	router, err := fleet.NewRouter(fx.shardURLs, fleet.Options{})
	if err != nil {
		return err
	}
	pl.set("fleet.refresh_s", timeIt(router.Refresh), "s")
	var owner, fanout []float64
	for i := 0; i < 2000; i++ {
		r := &fx.ring[i]
		if r.method != http.MethodGet {
			continue
		}
		us := timeIt(func() {
			router.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(r.method, r.path, nil))
		}) * 1e6
		if r.fanout {
			fanout = append(fanout, us)
		} else {
			owner = append(owner, us)
		}
	}
	pl.set("fleet.route_owner_us", median(owner), "us")
	pl.set("fleet.route_fanout_us", median(fanout), "us")

	// The same owner-routed reads through alignr and straight at the
	// alignd owning them: the price of the hop.
	var direct []request
	for u := fx.ranges[0].Lo; u < fx.ranges[0].Hi; u++ {
		r := request{method: http.MethodGet, path: fmt.Sprintf("/v1/match/1/%d", u)}
		r.wantStatus, _ = reference(fx.refs[0], &r)
		direct = append(direct, r)
	}
	// The fleet may be serving either generation after the churn; both
	// answer these reads with the same status.
	viaRouter := fx.loadgen(ctx, probeFor, 0, 1, fx.base, "", direct)
	viaShard := fx.loadgen(ctx, probeFor, 0, 1, fx.shardURLs[0], "", direct)
	if len(viaRouter.latS) == 0 || len(viaShard.latS) == 0 {
		return fmt.Errorf("the hop-ratio phases completed no request")
	}
	pl.set("fleet.hop_ratio", median(viaRouter.latS)/median(viaShard.latS), "ratio")
	return nil
}
