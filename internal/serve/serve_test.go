package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// fixtureUsers is the user-table size of the test snapshots.
const fixtureUsers = 8

// fixturePair builds a minimal pair whose user tables are what the
// snapshot records; graph structure beyond users is irrelevant here.
func fixturePair(t testing.TB) *hetnet.AlignedPair {
	t.Helper()
	build := func(name string) *hetnet.Network {
		g := hetnet.NewSocialNetwork(name)
		for u := 0; u < fixtureUsers; u++ {
			g.AddNode(hetnet.User, fmt.Sprintf("%s-u%d", name, u))
		}
		return g
	}
	return hetnet.NewAlignedPair(build("left"), build("right"))
}

// fixtureSnapshot builds a deterministic artifact parameterized by a
// marker: every match score equals marker and user i matches user
// (i+shift)%n — the shape the reload stress test uses to detect a
// response mixing two generations.
func fixtureSnapshot(t testing.TB, marker float64, shift int) *snapshot.Snapshot {
	t.Helper()
	pair := fixturePair(t)
	var pool []snapshot.PoolLink
	var matches []snapshot.Match
	for i := 0; i < fixtureUsers; i++ {
		j := int32((i + shift) % fixtureUsers)
		pool = append(pool, snapshot.PoolLink{I: int32(i), J: j, Label: 1, Score: marker, HasScore: true})
		pool = append(pool, snapshot.PoolLink{I: int32(i), J: (j + 1) % fixtureUsers, Label: 0, Score: marker / 2, HasScore: true})
		matches = append(matches, snapshot.Match{I: int32(i), J: j, Score: marker, HasScore: true})
	}
	labels := []snapshot.QueriedLabel{{I: 0, J: int32(shift % fixtureUsers), Label: 1}}
	pool[0].Queried = true
	meta := snapshot.Meta{
		CreatedUnix: 1700000000,
		Facade:      "monolithic",
		Notation:    []string{"f0", "f1", "bias"},
		Threshold:   0.5,
	}
	model := snapshot.Model{Shards: []snapshot.ShardModel{{Shard: 0, W: []float64{marker, 0, 1}}}}
	s, err := snapshot.Build(pair, meta, model, pool, matches, labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestIndex(t testing.TB, marker float64, shift int) *Index {
	t.Helper()
	ix, err := NewIndex(fixtureSnapshot(t, marker, shift))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestIndexLookups(t *testing.T) {
	ix := newTestIndex(t, 1.0, 0)

	m, ok := ix.MatchFor(1, 3)
	if !ok || m.Index != 3 || m.ID != "right-u3" || m.Score != 1.0 {
		t.Errorf("MatchFor(1,3) = %+v ok=%v", m, ok)
	}
	// Reverse direction resolves through match2.
	m, ok = ix.MatchFor(2, 3)
	if !ok || m.Index != 3 || m.ID != "left-u3" {
		t.Errorf("MatchFor(2,3) = %+v ok=%v", m, ok)
	}

	// Top-k ranking: user 0's best counterpart is its match (score 1.0),
	// then the decoy (0.5).
	cands := ix.CandidatesFor(1, 0, 2)
	if len(cands) != 2 || cands[0].Score < cands[1].Score {
		t.Errorf("CandidatesFor(1,0,2) = %+v", cands)
	}
	if got := ix.CandidatesFor(1, 0, 1); len(got) != 1 {
		t.Errorf("k=1 returned %d candidates", len(got))
	}

	p, ok := ix.PoolScore(0, 0)
	if !ok || p.Label != 1 || !p.Queried {
		t.Errorf("PoolScore(0,0) = %+v ok=%v", p, ok)
	}
	if _, ok := ix.PoolScore(7, 3); ok {
		t.Error("PoolScore invented a link outside the pool")
	}

	// AlignmentResult contract.
	if l, ok := ix.Label(0, 0); !ok || l != 1 {
		t.Errorf("Label(0,0) = %v ok=%v", l, ok)
	}
	if !ix.WasQueried(0, 0) || ix.WasQueried(1, 1) {
		t.Error("WasQueried wrong")
	}

	// ID and numeric resolution.
	if idx, ok := ix.ResolveUser(1, "left-u5"); !ok || idx != 5 {
		t.Errorf("ResolveUser by ID = %d ok=%v", idx, ok)
	}
	if idx, ok := ix.ResolveUser(2, "6"); !ok || idx != 6 {
		t.Errorf("ResolveUser by index = %d ok=%v", idx, ok)
	}
	if _, ok := ix.ResolveUser(1, "nope"); ok {
		t.Error("unknown user resolved")
	}
	if _, ok := ix.ResolveUser(1, "99"); ok {
		t.Error("out-of-range numeric user resolved")
	}
}

func TestIndexRescore(t *testing.T) {
	ix := newTestIndex(t, 2.0, 0) // W = {2, 0, 1}
	score, label, err := ix.Rescore(-1, []float64{0.5, 9, 1})
	if err != nil {
		t.Fatal(err)
	}
	if score != 2.0 { // 2*0.5 + 0*9 + 1*1
		t.Errorf("score = %v, want 2.0", score)
	}
	if label != 1 { // 2.0 > 0.5
		t.Errorf("label = %v, want 1", label)
	}
	if _, _, err := ix.Rescore(-1, []float64{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, _, err := ix.Rescore(7, []float64{1, 2, 3}); err == nil {
		t.Error("unknown shard accepted")
	}
	if _, _, err := ix.Rescore(-1, []float64{1e308, 0, 1e308}); err == nil {
		t.Error("a score that overflows to +Inf was accepted")
	}
}

// A monolithic artifact's one model is shard 0: a rescore without a shard
// scores with it and names no shard, naming shard 0 picks the same model,
// any other shard is a 400 naming the table, and statusz lists the table.
func TestHTTPMonolithRescoresAsShardZero(t *testing.T) {
	st := &Store{}
	st.Swap(newTestIndex(t, 2.0, 0)) // facade "monolithic", shard 0's W = {2, 0, 1}
	h := NewHandler(st, nil, HandlerOptions{})
	send := func(method, path, body string) (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w.Code, w.Body.String()
	}
	for _, tc := range []struct {
		body, want string
		status     int
	}{
		{`{"features":[0.5,9,1]}`, `{"generation":1,"source":"predictor","score":2,"has_score":true,"label":1}`, http.StatusOK},
		{`{"features":[0.5,9,1],"shard":0}`, `{"generation":1,"source":"predictor","score":2,"has_score":true,"label":1,"shard":0}`, http.StatusOK},
		{`{"features":[0.5,9,1],"shard":1}`, `{"error":"serve: no model for shard 1 (snapshot has shard models [0])"}`, http.StatusBadRequest},
	} {
		if code, got := send(http.MethodPost, "/v1/score", tc.body); code != tc.status || got != tc.want+"\n" {
			t.Errorf("%s: %d %s, want %d %s", tc.body, code, got, tc.status, tc.want)
		}
	}
	if _, got := send(http.MethodGet, "/statusz", ""); !strings.Contains(got, `"facade":"monolithic"`) || !strings.Contains(got, `"shards":[0]`) {
		t.Errorf("statusz does not list the monolith as shard 0: %s", got)
	}
}

func TestStoreSwapGenerations(t *testing.T) {
	var st Store
	if st.Current() != nil {
		t.Fatal("empty store served an index")
	}
	a := newTestIndex(t, 1, 0)
	if gen := st.Swap(a); gen != 1 || a.Generation != 1 {
		t.Errorf("first swap gen = %d (index %d)", gen, a.Generation)
	}
	b := newTestIndex(t, 2, 1)
	if gen := st.Swap(b); gen != 2 {
		t.Errorf("second swap gen = %d", gen)
	}
	if st.Current() != b {
		t.Error("Current is not the last swapped index")
	}
}

// newTestServer serves fixture A (marker 1, shift 0) from an on-disk
// artifact, loaded through Reload the way alignd boots, and returns the
// artifact's path: installFixture over it, then reload.
func newTestServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "a.snap")
	installFixture(t, path, 1.0, 0)
	h := NewHandler(&Store{}, nil, HandlerOptions{SnapshotPath: path})
	if _, err := h.Reload(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, path
}

// installFixture writes a fixture over path the way a rollout does: a
// temporary file renamed over the served path.
func installFixture(t testing.TB, path string, marker float64, shift int) {
	t.Helper()
	if err := fixtureSnapshot(t, marker, shift).WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body string, into any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPEndpoints(t *testing.T) {
	srv, path := newTestServer(t)

	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusOK {
		t.Errorf("readyz = %d", code)
	}

	var match matchResponse
	if code := getJSON(t, srv.URL+"/v1/match/1/left-u2", &match); code != http.StatusOK {
		t.Fatalf("match = %d", code)
	}
	if match.Match == nil || match.Match.ID != "right-u2" || match.Match.Score != 1.0 {
		t.Errorf("match body = %+v", match)
	}
	// Numeric user token resolves too.
	if code := getJSON(t, srv.URL+"/v1/match/2/2", &match); code != http.StatusOK || match.Match.ID != "left-u2" {
		t.Errorf("numeric match = %d %+v", 0, match)
	}

	var cands candidatesResponse
	if code := getJSON(t, srv.URL+"/v1/candidates/1/left-u0?k=1", &cands); code != http.StatusOK {
		t.Fatalf("candidates = %d", code)
	}
	if len(cands.Candidates) != 1 || cands.Candidates[0].ID != "right-u0" {
		t.Errorf("candidates body = %+v", cands)
	}

	var score scoreResponse
	if code := postJSON(t, srv.URL+"/v1/score", `{"i":0,"j":0}`, &score); code != http.StatusOK {
		t.Fatalf("pool score = %d", code)
	}
	if score.Source != "pool" || score.Label != 1 || score.Score != 1.0 {
		t.Errorf("pool score body = %+v", score)
	}
	if code := postJSON(t, srv.URL+"/v1/score", `{"features":[1,0,0]}`, &score); code != http.StatusOK {
		t.Fatalf("rescore = %d", code)
	}
	if score.Source != "predictor" || score.Score != 1.0 {
		t.Errorf("rescore body = %+v", score)
	}

	// Error shapes.
	if code := getJSON(t, srv.URL+"/v1/match/3/left-u0", nil); code != http.StatusBadRequest {
		t.Errorf("bad net = %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/match/1/ghost", nil); code != http.StatusNotFound {
		t.Errorf("unknown user = %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/score", `{"i":1}`, nil); code != http.StatusBadRequest {
		t.Errorf("half-pair score = %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/score", `{"i":0,"j":0,"features":[1]}`, nil); code != http.StatusBadRequest {
		t.Errorf("both-form score = %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown endpoint = %d", code)
	}

	// Snapshot B renamed over the served path: a reload shifts every
	// match by one and bumps the generation.
	installFixture(t, path, 2.0, 1)
	var rel reloadResponse
	if code := postJSON(t, srv.URL+"/v1/reload", "", &rel); code != http.StatusOK {
		t.Fatalf("reload = %d", code)
	}
	if rel.Generation != 2 {
		t.Errorf("reload generation = %d", rel.Generation)
	}
	if code := getJSON(t, srv.URL+"/v1/match/1/left-u2", &match); code != http.StatusOK {
		t.Fatalf("post-reload match = %d", code)
	}
	if match.Generation != 2 || match.Match.ID != "right-u3" || match.Match.Score != 2.0 {
		t.Errorf("post-reload match body = %+v", match)
	}
	// Reload of a missing artifact must not disturb the served model —
	// but it flips readiness (liveness stays green: the process is fine)
	// and surfaces on statusz until a reload succeeds.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, srv.URL+"/v1/reload", "", nil); code != http.StatusUnprocessableEntity {
		t.Errorf("bad reload = %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/match/1/left-u2", &match); code != http.StatusOK || match.Generation != 2 {
		t.Errorf("serving disturbed by failed reload: %d gen %d", code, match.Generation)
	}
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after failed reload = %d, want 503", code)
	}
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after failed reload = %d, want 200", code)
	}

	var status StatusResponse
	if code := getJSON(t, srv.URL+"/statusz", &status); code != http.StatusOK {
		t.Fatalf("statusz = %d", code)
	}
	if status.Generation != 2 || status.Snapshot == nil || status.Snapshot.Matches != fixtureUsers {
		t.Errorf("statusz body = %+v", status)
	}
	if !strings.Contains(status.LastReloadError, path) || !strings.Contains(status.LastReloadError, "no such file") {
		t.Errorf("statusz last_reload_error = %q, want the failed reload's error", status.LastReloadError)
	}

	// A successful reload clears the readiness latch.
	installFixture(t, path, 2.0, 1)
	if code := postJSON(t, srv.URL+"/v1/reload", "", nil); code != http.StatusOK {
		t.Fatalf("recovery reload = %d", code)
	}
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusOK {
		t.Errorf("readyz after recovery reload = %d", code)
	}
	found := false
	for _, ep := range status.Endpoints {
		if ep.Endpoint == "match" && ep.Requests > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("statusz endpoints missing match traffic: %+v", status.Endpoints)
	}
}

// A reload body may not point the server at another file — the
// endpoint is unauthenticated — and a refused body swaps nothing. An
// empty body, {} and the configured path itself all re-open the
// served artifact.
func TestHTTPReloadPathOverrideForbidden(t *testing.T) {
	srv, path := newTestServer(t)
	other := filepath.Join(filepath.Dir(path), "b.snap")
	installFixture(t, other, 2.0, 1)

	for _, body := range []string{fmt.Sprintf(`{"path":%q}`, other), `{"path":"/etc/hostname"}`} {
		var answer map[string]string
		if code := postJSON(t, srv.URL+"/v1/reload", body, &answer); code != http.StatusForbidden {
			t.Errorf("reload %s = %d %v, want 403", body, code, answer)
		}
	}
	var status StatusResponse
	if getJSON(t, srv.URL+"/statusz", &status); status.Generation != 1 || status.LastReloadError != "" {
		t.Errorf("a refused reload moved the store: generation %d, last error %q", status.Generation, status.LastReloadError)
	}
	for n, body := range []string{"", `{}`, fmt.Sprintf(`{"path":%q}`, path)} {
		var rel reloadResponse
		if code := postJSON(t, srv.URL+"/v1/reload", body, &rel); code != http.StatusOK || rel.Path != path || rel.Generation != uint64(n+2) {
			t.Errorf("reload %q = %d %+v, want 200 at generation %d", body, code, rel, n+2)
		}
	}
}

// TestHTTPReloadCorruptArtifact: a reload pointed at a corrupt artifact
// keeps the old generation serving, answers 422, drops readiness, and
// surfaces the decode error on statusz.
func TestHTTPReloadCorruptArtifact(t *testing.T) {
	srv, path := newTestServer(t)
	if err := os.WriteFile(path, []byte("not a snapshot artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, srv.URL+"/v1/reload", "", nil); code != http.StatusUnprocessableEntity {
		t.Errorf("corrupt reload = %d, want 422", code)
	}
	var match matchResponse
	if code := getJSON(t, srv.URL+"/v1/match/1/left-u2", &match); code != http.StatusOK || match.Generation != 1 {
		t.Errorf("old generation not serving after corrupt reload: %d gen %d", code, match.Generation)
	}
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after corrupt reload = %d, want 503", code)
	}
	var status StatusResponse
	if code := getJSON(t, srv.URL+"/statusz", &status); code != http.StatusOK {
		t.Fatalf("statusz = %d", code)
	}
	if status.LastReloadError == "" {
		t.Error("statusz does not surface the corrupt-reload error")
	}
	if status.Generation != 1 {
		t.Errorf("statusz generation = %d, want the surviving 1", status.Generation)
	}
}

// The POST endpoints are unauthenticated: a body is read up to
// MaxRequestBody and no further, and going over is a 413, not a decode
// of however much the client cares to send.
func TestHTTPRequestBodyBound(t *testing.T) {
	srv, _ := newTestServer(t)
	pad := func(n int) string { return strings.Repeat(" ", n) }
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"score within the bound", "/v1/score", pad(MaxRequestBody-len(`{"i":0,"j":0}`)) + `{"i":0,"j":0}`, http.StatusOK},
		{"score over the bound", "/v1/score", pad(MaxRequestBody) + `{"i":0,"j":0}`, http.StatusRequestEntityTooLarge},
		{"score, one huge value", "/v1/score", `{"features":[` + strings.Repeat("0,", MaxRequestBody) + `0]}`, http.StatusRequestEntityTooLarge},
		{"reload within the bound", "/v1/reload", pad(MaxRequestBody-2) + `{}`, http.StatusOK},
		{"reload over the bound", "/v1/reload", pad(MaxRequestBody) + `{}`, http.StatusRequestEntityTooLarge},
	} {
		var answer map[string]any
		if got := postJSON(t, srv.URL+tc.path, tc.body, &answer); got != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, got, tc.want, answer)
		}
	}
}

func TestHTTPEmptyStore(t *testing.T) {
	st := &Store{}
	srv := httptest.NewServer(NewHandler(st, nil, HandlerOptions{}))
	defer srv.Close()
	// Liveness is about the process, readiness about the model: an empty
	// store is alive but not ready.
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz on empty store = %d, want 200 (liveness)", code)
	}
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz on empty store = %d, want 503", code)
	}
	if code := getJSON(t, srv.URL+"/v1/match/1/0", nil); code != http.StatusServiceUnavailable {
		t.Errorf("match on empty store = %d", code)
	}
	// Reload unconfigured.
	if code := postJSON(t, srv.URL+"/v1/reload", "", nil); code != http.StatusNotImplemented {
		t.Errorf("unconfigured reload = %d", code)
	}
}

// Regression: a malformed ?k= must be rejected with a 400 and the
// uniform {"error": ...} body naming the bad value — not silently
// served at the default depth.
func TestHTTPCandidatesBadK(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, kq := range []string{"-1", "abc", "1.5", "", "0x10"} {
		url := srv.URL + "/v1/candidates/1/left-u0?k=" + kq
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body := map[string]string{}
		code := resp.StatusCode
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if kq == "" {
			// An empty k is the no-k case: default depth, not an error.
			if code != http.StatusOK {
				t.Errorf("k=<empty> = %d, want 200", code)
			}
			continue
		}
		if code != http.StatusBadRequest {
			t.Errorf("k=%q = %d, want 400", kq, code)
		}
		if decodeErr != nil {
			t.Fatalf("k=%q: error body is not JSON: %v", kq, decodeErr)
		}
		if msg := body["error"]; !strings.Contains(msg, fmt.Sprintf("bad k %q", kq)) || !strings.Contains(msg, "non-negative integer") {
			t.Errorf("k=%q error body = %q, want the value and the constraint named", kq, msg)
		}
	}
	// Valid edges stay valid: k=0 means the full precomputed list.
	if code := getJSON(t, srv.URL+"/v1/candidates/1/left-u0?k=0", nil); code != http.StatusOK {
		t.Errorf("k=0 = %d, want 200", code)
	}
}

func TestHTTPResolve(t *testing.T) {
	srv, _ := newTestServer(t)
	var res resolveResponse
	if code := getJSON(t, srv.URL+"/v1/resolve/1/left-u5", &res); code != http.StatusOK {
		t.Fatalf("resolve = %d", code)
	}
	if res.Net != 1 || res.Index != 5 || res.User != "left-u5" || res.Users != fixtureUsers {
		t.Errorf("resolve body = %+v", res)
	}
	// Numeric tokens resolve positionally, like the lookup endpoints.
	if code := getJSON(t, srv.URL+"/v1/resolve/2/3", &res); code != http.StatusOK || res.Index != 3 || res.User != "right-u3" {
		t.Errorf("numeric resolve = %+v", res)
	}
	if code := getJSON(t, srv.URL+"/v1/resolve/1/ghost", nil); code != http.StatusNotFound {
		t.Errorf("unknown user resolve = %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/resolve/9/left-u0", nil); code != http.StatusBadRequest {
		t.Errorf("bad net resolve = %d", code)
	}
}

// A shard artifact's statusz must expose its split provenance — the
// block the alignr router discovers the fleet range table from.
func TestHTTPStatusShardBlock(t *testing.T) {
	parent := fixtureSnapshot(t, 1.0, 0)
	shards, err := snapshot.Split(parent, snapshot.EvenRanges(fixtureUsers, 2))
	if err != nil {
		t.Fatal(err)
	}
	st := &Store{}
	ix, err := NewIndex(shards[1])
	if err != nil {
		t.Fatal(err)
	}
	st.Swap(ix)
	srv := httptest.NewServer(NewHandler(st, nil, HandlerOptions{}))
	defer srv.Close()

	var status StatusResponse
	if code := getJSON(t, srv.URL+"/statusz", &status); code != http.StatusOK {
		t.Fatalf("statusz = %d", code)
	}
	sh := status.Snapshot.Shard
	if sh == nil {
		t.Fatal("statusz has no shard block for a shard artifact")
	}
	if status.Snapshot.Format != snapshot.Version {
		t.Errorf("statusz format = %d, want %d", status.Snapshot.Format, snapshot.Version)
	}
	want := shards[1].Meta.Shard
	if sh.Lo != want.Range.Lo || sh.Hi != want.Range.Hi || sh.Index != 1 || sh.Count != 2 || sh.Epoch != want.Epoch {
		t.Errorf("shard block = %+v, want %+v", sh, want)
	}
	if sh.ParentFP != fmt.Sprintf("%016x", want.ParentFP) {
		t.Errorf("shard parent_fp = %q", sh.ParentFP)
	}
	// A whole-alignment artifact keeps the block absent. Decode into a
	// fresh struct: omitempty would leave the stale pointer in place.
	srvWhole, _ := newTestServer(t)
	status = StatusResponse{}
	if code := getJSON(t, srvWhole.URL+"/statusz", &status); code != http.StatusOK {
		t.Fatal("statusz on whole artifact")
	}
	if status.Snapshot.Shard != nil {
		t.Error("whole-alignment statusz grew a shard block")
	}
}

// TestReload drives the one load path without HTTP: each success swaps
// in the next generation, and a corrupt or version-mismatched artifact
// swaps nothing, flips readiness and says what is wrong.
func TestReload(t *testing.T) {
	if _, err := NewHandler(&Store{}, nil, HandlerOptions{}).Reload(); err == nil {
		t.Error("Reload without a configured path succeeded")
	}
	path := filepath.Join(t.TempDir(), "a.snap")
	installFixture(t, path, 1.0, 0)
	st := &Store{}
	h := NewHandler(st, nil, HandlerOptions{SnapshotPath: path})
	ready := func() int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return w.Code
	}
	for gen := uint64(1); gen <= 2; gen++ {
		ix, err := h.Reload()
		if err != nil {
			t.Fatal(err)
		}
		if ix.Generation != gen || st.Current() != ix {
			t.Errorf("reload %d served generation %d (returned %d)", gen, st.Current().Generation, ix.Generation)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bumped := append([]byte(nil), raw...)
	bumped[6] = snapshot.Version + 1 // version byte of the first frame
	for _, bad := range []struct {
		name, want string
		raw        []byte
	}{
		{"corrupt", "open " + path, []byte("junk")},
		{"version-bumped", "different release", bumped},
	} {
		if err := os.WriteFile(path, bad.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Reload(); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s artifact: Reload error %v, want one naming %q", bad.name, err, bad.want)
		}
		if st.Current().Generation != 2 {
			t.Errorf("%s artifact disturbed the served generation: %d", bad.name, st.Current().Generation)
		}
		if code := ready(); code != http.StatusServiceUnavailable {
			t.Errorf("readyz after a %s reload = %d, want 503", bad.name, code)
		}
	}
	if _, err := h.Reload(); !errors.Is(err, snapshot.ErrVersionMismatch) {
		t.Errorf("version-bumped artifact: %v is not ErrVersionMismatch", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Reload(); err != nil || ready() != http.StatusOK {
		t.Errorf("recovery reload: %v, readyz %d", err, ready())
	}
}

func TestMetricsPercentiles(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 98; i++ {
		m.Observe("x", 10*time.Microsecond, false)
	}
	// Two slow outliers put the 99th-of-100 request in the slow bucket.
	m.Observe("x", 5*time.Millisecond, true)
	m.Observe("x", 5*time.Millisecond, false)
	rep := m.Report()
	if len(rep) != 1 || rep[0].Requests != 100 || rep[0].Errors != 1 {
		t.Fatalf("report = %+v", rep)
	}
	// p50 sits in the 10µs bucket (upper bound ≤ 16µs); p99 must reach
	// the 5ms outlier's bucket (upper bound ≥ 5ms).
	if rep[0].P50 > 16*time.Microsecond {
		t.Errorf("p50 = %v", rep[0].P50)
	}
	if rep[0].P99 < 5*time.Millisecond {
		t.Errorf("p99 = %v", rep[0].P99)
	}
	if rep[0].QPS <= 0 {
		t.Errorf("qps = %v", rep[0].QPS)
	}
}
