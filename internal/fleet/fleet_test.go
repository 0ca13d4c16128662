package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/retry"
	"github.com/activeiter/activeiter/internal/serve"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// randomSnapshot builds an arbitrary-but-valid whole alignment: random
// pool degrees, scores quantized to eighths so cross-shard ties are
// common (the merge order must win on the index tie-break, not luck),
// matches and labels drawn from the pool.
func randomSnapshot(t testing.TB, rng *rand.Rand, n1, n2, topK int) *snapshot.Snapshot {
	t.Helper()
	build := func(name string, n int) *hetnet.Network {
		g := hetnet.NewSocialNetwork(name)
		for u := 0; u < n; u++ {
			g.AddNode(hetnet.User, fmt.Sprintf("%s-u%d", name, u))
		}
		return g
	}
	pair := hetnet.NewAlignedPair(build("left", n1), build("right", n2))
	var pool []snapshot.PoolLink
	seen := map[[2]int32]bool{}
	for i := 0; i < n1; i++ {
		deg := 1 + rng.Intn(6)
		for d := 0; d < deg; d++ {
			j := int32(rng.Intn(n2))
			if seen[[2]int32{int32(i), j}] {
				continue
			}
			seen[[2]int32{int32(i), j}] = true
			link := snapshot.PoolLink{
				I:        int32(i),
				J:        j,
				Label:    float64(rng.Intn(2)),
				Score:    float64(rng.Intn(8)) / 8,
				HasScore: rng.Intn(10) > 0, // a few scoreless links
			}
			pool = append(pool, link)
		}
	}
	var matches []snapshot.Match
	var labels []snapshot.QueriedLabel
	for _, p := range pool {
		if len(matches) == 0 || matches[len(matches)-1].I != p.I {
			if rng.Intn(10) < 7 {
				matches = append(matches, snapshot.Match{I: p.I, J: p.J, Score: p.Score, HasScore: p.HasScore})
			}
		}
		if rng.Intn(12) == 0 {
			labels = append(labels, snapshot.QueriedLabel{I: p.I, J: p.J, Label: p.Label})
		}
	}
	meta := snapshot.Meta{
		CreatedUnix: 1700000000,
		Facade:      "fleet-prop",
		Notation:    []string{"f0", "f1", "bias"},
		Threshold:   0.5,
	}
	model := snapshot.Model{Shards: []snapshot.ShardModel{{Shard: 0, W: []float64{0.5, -0.25, 0.125}}}}
	s, err := snapshot.Build(pair, meta, model, pool, matches, labels, topK)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// backendServer serves one artifact the way cmd/alignd does, with
// reload wired to an on-disk path so rollout tests work end to end.
func backendServer(t testing.TB, s *snapshot.Snapshot, dir string, name string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(backendHandler(t, s, dir, name))
	t.Cleanup(srv.Close)
	return srv
}

// backendHandler is backendServer's alignd handler, for tests that wrap
// it.
func backendHandler(t testing.TB, s *snapshot.Snapshot, dir string, name string) http.Handler {
	t.Helper()
	path := filepath.Join(dir, name+".snap")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	st := &serve.Store{}
	ix, err := serve.NewIndex(s)
	if err != nil {
		t.Fatal(err)
	}
	st.Swap(ix)
	return serve.NewHandler(st, serve.NewMetrics(), serve.HandlerOptions{SnapshotPath: path})
}

// newFleet splits parent by ranges, serves every shard, and fronts
// them with a started router. Returns the router server and the
// router itself.
func newFleet(t testing.TB, parent *snapshot.Snapshot, ranges []snapshot.UserRange, opts Options) (*httptest.Server, *Router) {
	t.Helper()
	shards, err := snapshot.Split(parent, ranges)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var urls []string
	for i, sh := range shards {
		srv := backendServer(t, sh, dir, fmt.Sprintf("shard%d", i))
		urls = append(urls, srv.URL)
	}
	rt, err := NewRouter(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt.Refresh()
	srv := httptest.NewServer(rt)
	t.Cleanup(func() { rt.Stop(); srv.Close() })
	return srv, rt
}

// response captures everything bit-identity compares.
type response struct {
	status      int
	contentType string
	body        []byte
}

func do(t testing.TB, base, method, pathAndQuery string, body string) response {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, base+pathAndQuery, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return response{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: raw}
}

// TestRouterRoutesScoreLikeAlignd: the router reads a /v1/score body
// the way alignd does, so a pool lookup alignd answers is owner-routed
// even when its body carries "features":null or trailing bytes — a
// non-owner would answer 404 where the monolith answers 200.
func TestRouterRoutesScoreLikeAlignd(t *testing.T) {
	parent := randomSnapshot(t, rand.New(rand.NewSource(7907)), 20, 18, 4)
	mono := backendServer(t, parent, t.TempDir(), "mono")
	fleetSrv, _ := newFleet(t, parent, []snapshot.UserRange{{Lo: 0, Hi: 10}, {Lo: 10, Hi: 20}}, Options{})
	for _, p := range parent.Pool {
		for _, body := range []string{
			fmt.Sprintf(`{"i":%d,"j":%d,"features":null}`, p.I, p.J),
			fmt.Sprintf(`{"i":%d,"j":%d} trailing`, p.I, p.J),
		} {
			want := do(t, mono.URL, http.MethodPost, "/v1/score", body)
			got := do(t, fleetSrv.URL, http.MethodPost, "/v1/score", body)
			if want.status != http.StatusOK || got.status != want.status || !bytes.Equal(got.body, want.body) {
				t.Errorf("%s:\n router: %d %s\n mono:   %d %s", body, got.status, got.body, want.status, want.body)
			}
		}
	}
}

// TestRouterFailover: with two replicas of the full range and one of
// them dead, the router retries onto the live replica and still
// answers correctly.
func TestRouterFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	parent := randomSnapshot(t, rng, 10, 10, 4)
	dir := t.TempDir()
	live := backendServer(t, parent, dir, "live")
	dead := backendServer(t, parent, dir, "dead")

	rt, err := NewRouter([]string{dead.URL, live.URL}, Options{Retry: retry.Policy{Attempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Refresh()
	dead.Close() // dies after discovery: the router still believes in it
	srv := httptest.NewServer(rt)
	defer srv.Close()

	r := do(t, srv.URL, http.MethodGet, "/v1/match/1/left-u0", "")
	mono := do(t, live.URL, http.MethodGet, "/v1/match/1/left-u0", "")
	if r.status != mono.status || !bytes.Equal(r.body, mono.body) {
		t.Errorf("failover answer diverged: %d %s vs %d %s", r.status, r.body, mono.status, mono.body)
	}
}

// TestRouterHedgedRead: a slow primary plus a fast replica and a tiny
// hedge delay answer well before the slow replica would.
func TestRouterHedgedRead(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	parent := randomSnapshot(t, rng, 10, 10, 4)
	dir := t.TempDir()
	fast := backendServer(t, parent, dir, "fast")

	ix, err := serve.NewIndex(parent)
	if err != nil {
		t.Fatal(err)
	}
	st := &serve.Store{}
	st.Swap(ix)
	inner := serve.NewHandler(st, serve.NewMetrics(), serve.HandlerOptions{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/match/1/left-u0" {
			time.Sleep(2 * time.Second)
		}
		inner.ServeHTTP(w, r)
	}))
	defer slow.Close()

	rt, err := NewRouter([]string{slow.URL, fast.URL}, Options{HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt.Refresh()
	srv := httptest.NewServer(rt)
	defer srv.Close()

	start := time.Now()
	r := do(t, srv.URL, http.MethodGet, "/v1/match/1/left-u0", "")
	if r.status != http.StatusOK {
		t.Fatalf("hedged read failed: %d %s", r.status, r.body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hedged read took %v; the hedge should have won long before the slow primary", elapsed)
	}
}

// TestRouterRollout: POST /v1/reload on the router rolls every backend
// to the next generation, one at a time, and reports them all.
func TestRouterRollout(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	parent := randomSnapshot(t, rng, 12, 12, 4)
	ranges := []snapshot.UserRange{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 12}}
	fleetSrv, rt := newFleet(t, parent, ranges, Options{})

	r := do(t, fleetSrv.URL, http.MethodPost, "/v1/reload", "{}")
	if r.status != http.StatusOK {
		t.Fatalf("rollout = %d %s", r.status, r.body)
	}
	var resp rolloutResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Reloaded) != 2 || len(resp.Failed) != 0 {
		t.Errorf("rollout = %+v", resp)
	}
	for _, b := range rt.backends {
		if _, gen, _, _, _ := b.snapshotState(); gen != 2 {
			t.Errorf("backend %s at generation %d after rollout, want 2", b.URL, gen)
		}
	}

	// A match through the router now reports the new generation.
	var match struct {
		Generation uint64 `json:"generation"`
	}
	mr := do(t, fleetSrv.URL, http.MethodGet, "/v1/match/2/right-u3", "")
	if mr.status == http.StatusOK {
		if err := json.Unmarshal(mr.body, &match); err != nil {
			t.Fatal(err)
		}
		if match.Generation != 2 {
			t.Errorf("post-rollout generation = %d, want 2", match.Generation)
		}
	}
}

// TestRouterStatusz sanity-checks the router's own status page: ready,
// the discovered ranges in order, every backend listed.
func TestRouterStatusz(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	parent := randomSnapshot(t, rng, 12, 12, 4)
	ranges := []snapshot.UserRange{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 12}}
	fleetSrv, _ := newFleet(t, parent, ranges, Options{})

	r := do(t, fleetSrv.URL, http.MethodGet, "/statusz", "")
	if r.status != http.StatusOK {
		t.Fatalf("statusz = %d", r.status)
	}
	var st routerStatus
	if err := json.Unmarshal(r.body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Users1 != 12 || len(st.Ranges) != 2 || len(st.Backends) != 2 {
		t.Errorf("statusz = %+v", st)
	}
	if st.Ranges[0].Lo != 0 || st.Ranges[0].Hi != 4 || st.Ranges[1].Lo != 4 || st.Ranges[1].Hi != 12 {
		t.Errorf("ranges out of order: %+v", st.Ranges)
	}

	m := do(t, fleetSrv.URL, http.MethodGet, "/metricsz", "")
	if m.status != http.StatusOK || !bytes.Contains(m.body, []byte("activeiter_serve_requests_total")) {
		t.Errorf("metricsz = %d %.120s", m.status, m.body)
	}
}

// TestRouterNotReadyWithGap: a router whose discovered ranges do not
// tile the user space reports not-ready rather than serving holes.
func TestRouterNotReadyWithGap(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	parent := randomSnapshot(t, rng, 12, 12, 4)
	shards, err := snapshot.Split(parent, []snapshot.UserRange{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 12}})
	if err != nil {
		t.Fatal(err)
	}
	// Only shard 0 gets a server: range [6,12) is dark.
	srv0 := backendServer(t, shards[0], t.TempDir(), "s0")
	rt, err := NewRouter([]string{srv0.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Refresh()
	srv := httptest.NewServer(rt)
	defer srv.Close()
	if r := do(t, srv.URL, http.MethodGet, "/readyz", ""); r.status != http.StatusServiceUnavailable {
		t.Errorf("readyz with a dark range = %d, want 503", r.status)
	}
}

// TestRouterHealthLoop: a started router discovers a backend that turns
// ready on its own ticks, with no Refresh call, and Stop ends the loop's
// goroutine.
func TestRouterHealthLoop(t *testing.T) {
	parent := randomSnapshot(t, rand.New(rand.NewSource(48)), 12, 12, 4)
	alignd := backendHandler(t, parent, t.TempDir(), "whole")
	var up atomic.Bool
	var probes atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			probes.Add(1)
			if !up.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
		}
		alignd.ServeHTTP(w, r)
	}))
	defer backend.Close()
	rt, err := NewRouter([]string{backend.URL}, Options{HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ready := func() int {
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return w.Code
	}
	// within polls cond until it holds, failing after a generous bound.
	within := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within 5s", what)
			}
		}
	}
	loopRunning := func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("fleet.(*Router).Start.func1"))
	}

	rt.Start()
	within("the loop probes the backend twice", func() bool { return probes.Load() >= 2 })
	if code := ready(); code != http.StatusServiceUnavailable {
		t.Errorf("readyz with the backend not ready = %d, want 503", code)
	}
	up.Store(true)
	within("the loop discovers the ready backend", func() bool { return ready() == http.StatusOK })
	rt.Stop()
	within("Stop ends the health loop", func() bool { return !loopRunning() })
}

// net2Paths lists every net-2 lookup shape over n2 users: match, and
// candidates by token and index at several depths.
func net2Paths(n2 int) []string {
	var out []string
	for j := 0; j < n2; j++ {
		out = append(out,
			fmt.Sprintf("/v1/match/2/right-u%d", j),
			fmt.Sprintf("/v1/candidates/2/right-u%d", j),
			fmt.Sprintf("/v1/candidates/2/%d?k=2", j))
	}
	return out
}

// TestRouterDarkRangeServesNet2: when a range's every backend is
// unreachable, net-2 reads still answer 200-or-canonical-404,
// byte-identical to the monolith — every shard carries the whole net-2
// read side — while net-1 reads the dark range owns still fail rather
// than being answered by a shard that does not own them. Both before
// the probe notices (retries walk past the dead replica) and after.
func TestRouterDarkRangeServesNet2(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	parent := randomSnapshot(t, rng, 12, 12, 4)
	shards, err := snapshot.Split(parent, []snapshot.UserRange{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 12}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mono := backendServer(t, parent, dir, "mono")
	srv0 := backendServer(t, shards[0], dir, "s0")
	srv1 := backendServer(t, shards[1], dir, "s1")
	rt, err := NewRouter([]string{srv0.URL, srv1.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Refresh()
	srv1.Close() // range [6,12) goes dark AFTER discovery
	routerSrv := httptest.NewServer(rt)
	defer routerSrv.Close()

	check := func(phase string) {
		for _, path := range net2Paths(12) {
			want := do(t, mono.URL, http.MethodGet, path, "")
			got := do(t, routerSrv.URL, http.MethodGet, path, "")
			if got.status != want.status || got.contentType != want.contentType || !bytes.Equal(got.body, want.body) {
				t.Errorf("%s: %s with a dark range:\n router: %d %s\n mono:   %d %s", phase, path, got.status, got.body, want.status, want.body)
			}
		}
		for i := 6; i < 12; i++ {
			for _, path := range []string{fmt.Sprintf("/v1/match/1/left-u%d", i), fmt.Sprintf("/v1/candidates/1/%d", i)} {
				if r := do(t, routerSrv.URL, http.MethodGet, path, ""); r.status < 500 {
					t.Errorf("%s: %s is owned by the dark range but answered %d %s", phase, path, r.status, r.body)
				}
			}
		}
	}
	check("before the probe")
	rt.Refresh()
	check("after the probe")
	if r := do(t, routerSrv.URL, http.MethodGet, "/readyz", ""); r.status != http.StatusServiceUnavailable {
		t.Errorf("readyz with a dark range = %d, want 503", r.status)
	}
}

var generationField = regexp.MustCompile(`"generation":[0-9]+`)

// TestRouterMixedGenerationNet2: mid-rollout the fleet holds shards of
// two artifacts P and P′ (different pools, matches and stored top-k).
// A net-2 answer comes from one replica, so every body is P's or P′'s
// monolithic answer with the generation masked — never a merge of both.
func TestRouterMixedGenerationNet2(t *testing.T) {
	ranges := []snapshot.UserRange{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 12}}
	p := randomSnapshot(t, rand.New(rand.NewSource(49)), 12, 12, 4)
	pPrime := randomSnapshot(t, rand.New(rand.NewSource(50)), 12, 12, 2)
	shardsP, err := snapshot.Split(p, ranges)
	if err != nil {
		t.Fatal(err)
	}
	shardsPPrime, err := snapshot.Split(pPrime, ranges)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	monoP := backendServer(t, p, dir, "monoP")
	monoPPrime := backendServer(t, pPrime, dir, "monoPPrime")
	srv0 := backendServer(t, shardsPPrime[0], dir, "s0")
	srv1 := backendServer(t, shardsP[1], dir, "s1")
	rt, err := NewRouter([]string{srv0.URL, srv1.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Refresh()
	routerSrv := httptest.NewServer(rt)
	defer routerSrv.Close()

	masked := func(r response) string {
		return fmt.Sprintf("%d %s %s", r.status, r.contentType, generationField.ReplaceAll(r.body, []byte(`"generation":0`)))
	}
	var sawP, sawPPrime int
	for _, path := range net2Paths(12) {
		a := masked(do(t, monoP.URL, http.MethodGet, path, ""))
		b := masked(do(t, monoPPrime.URL, http.MethodGet, path, ""))
		// Consecutive reads start at different replicas.
		for rep := 0; rep < 2; rep++ {
			got := masked(do(t, routerSrv.URL, http.MethodGet, path, ""))
			switch {
			case got == a && got == b:
			case got == a:
				sawP++
			case got == b:
				sawPPrime++
			default:
				t.Errorf("%s answered %s\n which is neither P's %s\n nor P′'s %s", path, got, a, b)
			}
		}
	}
	if sawP == 0 || sawPPrime == 0 {
		t.Errorf("distinguishable answers from P: %d, from P′: %d — want both generations served", sawP, sawPPrime)
	}
}

// TestRouterNet2ReadsRotate: any-backend reads start at a rotating
// replica, so net-2 traffic spreads over a 2-shard fleet instead of
// landing on the first ready backend.
func TestRouterNet2ReadsRotate(t *testing.T) {
	parent := randomSnapshot(t, rand.New(rand.NewSource(51)), 12, 12, 4)
	shards, err := snapshot.Split(parent, []snapshot.UserRange{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 12}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var hits [2]atomic.Int64
	var urls []string
	for i, sh := range shards {
		h := backendHandler(t, sh, dir, fmt.Sprintf("s%d", i))
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.Contains(r.URL.Path, "/2/") {
				hits[i].Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	rt, err := NewRouter(urls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Refresh()
	routerSrv := httptest.NewServer(rt)
	defer routerSrv.Close()

	const n = 400
	paths := net2Paths(12)
	for i := 0; i < n; i++ {
		if r := do(t, routerSrv.URL, http.MethodGet, paths[i%len(paths)], ""); r.status >= 500 {
			t.Fatalf("net-2 read = %d %s", r.status, r.body)
		}
	}
	for i := range hits {
		if got := hits[i].Load(); got < n/2-n/20 || got > n/2+n/20 {
			t.Errorf("backend %d took %d of %d net-2 reads, want %d ± %d", i, got, n, n/2, n/20)
		}
	}
}

// TestRouterRefusesOldFormatShard: a shard backend that does not report
// the current artifact format — an older alignd (no format field) or a
// v3 shard — holds only its range's slice of the net-2 side. The probe
// marks it not ready, naming why, so /readyz is 503 and no net-2 read
// reaches it; the current shard still answers them like the monolith.
func TestRouterRefusesOldFormatShard(t *testing.T) {
	parent := randomSnapshot(t, rand.New(rand.NewSource(52)), 12, 12, 4)
	shards, err := snapshot.Split(parent, []snapshot.UserRange{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 12}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mono := backendServer(t, parent, dir, "mono")
	srv0 := backendServer(t, shards[0], dir, "s0")
	for _, format := range []int{0, 3} {
		t.Run(fmt.Sprintf("format%d", format), func(t *testing.T) {
			var reads atomic.Int64
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/readyz":
					fmt.Fprintln(w, "ready")
				case "/statusz":
					json.NewEncoder(w).Encode(serve.StatusResponse{Generation: 1, Snapshot: &serve.StatusSnapshot{
						Format: format, Users1: 12, Users2: 12, TopK: 4,
						Shard: &serve.StatusShard{Lo: 6, Hi: 12, Index: 1, Count: 2},
					}})
				default:
					reads.Add(1)
					http.Error(w, "stub holds a slice of the net-2 side", http.StatusInternalServerError)
				}
			}))
			defer stub.Close()
			rt, err := NewRouter([]string{srv0.URL, stub.URL}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rt.Refresh()
			routerSrv := httptest.NewServer(rt)
			defer routerSrv.Close()

			if r := do(t, routerSrv.URL, http.MethodGet, "/readyz", ""); r.status != http.StatusServiceUnavailable {
				t.Errorf("readyz with a format-%d shard = %d, want 503", format, r.status)
			}
			ready, _, _, _, lastErr := rt.backends[1].snapshotState()
			if want := fmt.Sprintf("format %d, want %d", format, snapshot.Version); ready || !strings.Contains(lastErr, want) {
				t.Errorf("format-%d shard: ready=%v lastErr=%q, want not ready naming %q", format, ready, lastErr, want)
			}
			for _, path := range net2Paths(12) {
				want := do(t, mono.URL, http.MethodGet, path, "")
				got := do(t, routerSrv.URL, http.MethodGet, path, "")
				if got.status != want.status || !bytes.Equal(got.body, want.body) {
					t.Errorf("%s: router %d %s, mono %d %s", path, got.status, got.body, want.status, want.body)
				}
			}
			if n := reads.Load(); n != 0 {
				t.Errorf("%d reads reached the format-%d shard", n, format)
			}
		})
	}
}

// TestRouterProbeInvalidatesResolveCache: a backend reloaded behind the
// router's back (SIGHUP, direct POST /v1/reload) may renumber users;
// the probe loop must drop the token→index cache when it observes the
// generation change, or stale indices owner-route to the wrong shard.
func TestRouterProbeInvalidatesResolveCache(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	parent := randomSnapshot(t, rng, 12, 12, 4)
	shards, err := snapshot.Split(parent, []snapshot.UserRange{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 12}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srv0 := backendServer(t, shards[0], dir, "s0")
	srv1 := backendServer(t, shards[1], dir, "s1")
	rt, err := NewRouter([]string{srv0.URL, srv1.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Refresh()
	routerSrv := httptest.NewServer(rt)
	defer routerSrv.Close()

	if r := do(t, routerSrv.URL, http.MethodGet, "/v1/match/1/left-u0", ""); r.status >= 500 {
		t.Fatalf("seed lookup = %d %s", r.status, r.body)
	}
	rt.resolveMu.Lock()
	populated := len(rt.resolveCache)
	rt.resolveMu.Unlock()
	if populated == 0 {
		t.Fatal("net-1 token lookup did not populate the resolve cache")
	}

	// Out-of-band reload: straight at the backend, not via the router.
	if r := do(t, srv0.URL, http.MethodPost, "/v1/reload", "{}"); r.status != http.StatusOK {
		t.Fatalf("direct backend reload = %d %s", r.status, r.body)
	}
	rt.Refresh()
	rt.resolveMu.Lock()
	left := len(rt.resolveCache)
	rt.resolveMu.Unlock()
	if left != 0 {
		t.Errorf("resolve cache holds %d entries after an out-of-band backend reload, want 0", left)
	}

	// A steady-state probe (no generation change) must NOT thrash it.
	if r := do(t, routerSrv.URL, http.MethodGet, "/v1/match/1/left-u0", ""); r.status >= 500 {
		t.Fatalf("post-reload lookup = %d %s", r.status, r.body)
	}
	rt.Refresh()
	rt.resolveMu.Lock()
	kept := len(rt.resolveCache)
	rt.resolveMu.Unlock()
	if kept == 0 {
		t.Error("steady-state probe cleared the resolve cache with no generation change")
	}
}

var _ = os.Getenv // keep os imported for future fixtures

// Scheme-less -backends entries (host:port) are how operators name a
// local fleet; the router must default them to http:// rather than
// letting url parsing read the port as a path segment.
func TestNewRouterSchemelessBackends(t *testing.T) {
	r, err := NewRouter([]string{"127.0.0.1:7601", "http://127.0.0.1:7602/", " 127.0.0.1:7603 "}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://127.0.0.1:7601", "http://127.0.0.1:7602", "http://127.0.0.1:7603"}
	for i, b := range r.backends {
		if b.URL != want[i] {
			t.Errorf("backend %d URL = %q, want %q", i, b.URL, want[i])
		}
	}
}

// A zero Retry resolves to the one default policy; a negative field is
// refused.
func TestNewRouterRetryPolicy(t *testing.T) {
	r, err := NewRouter([]string{"127.0.0.1:7601"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := (retry.Policy{Attempts: retry.DefaultAttempts, Timeout: 5 * time.Second}); r.opts.Retry != want || r.client.Timeout != want.Timeout {
		t.Errorf("zero Retry resolved to %+v (client timeout %v), want %+v", r.opts.Retry, r.client.Timeout, want)
	}
	for _, p := range []retry.Policy{{Attempts: -1}, {Timeout: -time.Second}} {
		if _, err := NewRouter([]string{"127.0.0.1:7601"}, Options{Retry: p}); err == nil {
			t.Errorf("NewRouter accepted Retry %+v", p)
		}
	}
}
