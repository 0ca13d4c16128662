// Package fleet is the alignr routing tier: one process that fronts a
// fleet of alignd replicas, each serving one user-range shard of a
// split snapshot (internal/snapshot.Split), and presents the exact
// monolithic serving surface to clients. The contract is
// bit-identity: any request answered through the router returns the
// same status, headers and body bytes a single alignd holding the
// whole artifact would return. Every answer is one backend's response,
// proxied verbatim: net-1 lookups and pool scores go to the range that
// owns the net-1 user; net-2 lookups, resolves and error replays go to
// any ready replica — every shard carries the whole net-2 read side and
// the full user tables, so any of them answers those like the monolith.
// No request is sent to more than one range.
//
// The router is configured with backend URLs only. The range table is
// DISCOVERED from each backend's /statusz shard block (a backend with
// no shard block owns the full range), so resharding is a redeploy of
// alignd processes, not a router config change. Per-request resilience
// follows the distrib tier's retry.Policy: bounded attempts with
// capped-jitter backoff across same-range replicas, optional hedged
// reads, and health-gated candidate selection fed by a /readyz probe
// loop.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activeiter/activeiter/internal/retry"
	"github.com/activeiter/activeiter/internal/serve"
	"github.com/activeiter/activeiter/internal/snapshot"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// Options configure a Router.
type Options struct {
	// Retry is the per-request policy: Attempts across a range's
	// replicas (default 3), Timeout bounding each backend request
	// (default 5s).
	Retry retry.Policy
	// HedgeAfter, when > 0, launches a second attempt against another
	// replica of the same range if the first has not answered within
	// this delay; the first response wins.
	HedgeAfter time.Duration
	// HealthInterval is the /readyz probe + /statusz rediscovery
	// period (default 2s). Probing starts with Start.
	HealthInterval time.Duration
}

const (
	defaultHealthInterval = 2 * time.Second
	// resolveCacheMax bounds the token→index cache; eviction is whole-
	// sale (the cache exists to absorb hot keys, not to be complete).
	resolveCacheMax = 1 << 16
)

// Backend is one alignd replica the router fronts.
type Backend struct {
	URL string

	mu         sync.Mutex
	seen       bool // probed successfully at least once
	ready      bool
	lastErr    string
	generation uint64
	users1     int
	shard      *serve.StatusShard // nil: serves the full range
}

func (b *Backend) snapshotState() (ready bool, gen uint64, users1 int, shard *serve.StatusShard, lastErr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ready, b.generation, b.users1, b.shard, b.lastErr
}

// ownedRange returns the net-1 user range the backend owns.
func (b *Backend) ownedRange() (lo, hi int32, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shard != nil {
		return b.shard.Lo, b.shard.Hi, true
	}
	if b.users1 > 0 {
		return 0, int32(b.users1), true
	}
	return 0, 0, false
}

// Router is the alignr HTTP handler.
type Router struct {
	backends []*Backend
	client   *http.Client
	opts     Options
	metrics  *serve.Metrics

	// requests numbers proxied requests; the number keys a request's
	// backoff jitter.
	requests atomic.Uint64

	// rotation spreads any-backend requests: each starts at the next
	// ready replica, so net-2 reads do not all land on the first one.
	rotation atomic.Uint64

	resolveMu    sync.Mutex
	resolveCache map[string]int32

	stopOnce sync.Once
	stop     chan struct{}

	cRetry, cHedge, cRollout  *telemetry.Counter
	cResolveHit, cResolveMiss *telemetry.Counter
}

// NewRouter builds a router over the backend base URLs. A bare
// host:port gets an http:// scheme; a trailing slash is trimmed. Call
// Refresh (or Start) before serving so the range table exists. A
// negative field in opts.Retry is an error.
func NewRouter(backendURLs []string, opts Options) (*Router, error) {
	if len(backendURLs) == 0 {
		return nil, fmt.Errorf("fleet: no backends")
	}
	var err error
	if opts.Retry, err = opts.Retry.Resolve(5 * time.Second); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = defaultHealthInterval
	}
	// The router counters (retries, hedges, resolves, rollouts) share the
	// per-endpoint registry, so they ride the same /metricsz exposition.
	metrics := serve.NewMetrics()
	reg := metrics.Registry()
	r := &Router{
		client:       &http.Client{Timeout: opts.Retry.Timeout},
		opts:         opts,
		metrics:      metrics,
		resolveCache: make(map[string]int32),
		stop:         make(chan struct{}),
		cRetry:       reg.Counter("fleet_retries_total", "proxy attempts beyond the first"),
		cHedge:       reg.Counter("fleet_hedges_total", "hedged second requests launched"),
		cRollout:     reg.Counter("fleet_rollouts_total", "rolling reloads executed"),
		cResolveHit:  reg.Counter("fleet_resolve_total", "net-1 token resolutions, by resolve-cache outcome", telemetry.L("result", "hit")),
		cResolveMiss: reg.Counter("fleet_resolve_total", "net-1 token resolutions, by resolve-cache outcome", telemetry.L("result", "miss")),
	}
	for _, u := range backendURLs {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("fleet: empty backend URL")
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		r.backends = append(r.backends, &Backend{URL: u})
	}
	return r, nil
}

// Metrics exposes the per-endpoint registry.
func (rt *Router) Metrics() *serve.Metrics { return rt.metrics }

// Start launches the health/discovery loop; Stop ends it.
func (rt *Router) Start() {
	go func() {
		t := time.NewTicker(rt.opts.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.Refresh()
			}
		}
	}()
}

// Stop ends the health loop.
func (rt *Router) Stop() { rt.stopOnce.Do(func() { close(rt.stop) }) }

// Refresh probes every backend's /readyz and /statusz once,
// concurrently, updating health and the discovered range table.
func (rt *Router) Refresh() {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			rt.probe(b)
		}(b)
	}
	wg.Wait()
}

func (rt *Router) probe(b *Backend) {
	setErr := func(err error) {
		b.mu.Lock()
		b.ready = false
		b.lastErr = err.Error()
		b.mu.Unlock()
	}
	resp, err := rt.client.Get(b.URL + "/readyz")
	if err != nil {
		setErr(err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		setErr(fmt.Errorf("readyz answered %d", resp.StatusCode))
		return
	}
	resp, err = rt.client.Get(b.URL + "/statusz")
	if err != nil {
		setErr(err)
		return
	}
	var st serve.StatusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		setErr(fmt.Errorf("statusz: %w", err))
		return
	}
	if st.Snapshot == nil {
		setErr(fmt.Errorf("statusz has no snapshot block"))
		return
	}
	if st.Snapshot.Shard != nil && st.Snapshot.Format != snapshot.Version {
		// Net-2 reads go to one replica, which is the whole answer only
		// from a shard that carries the whole net-2 side (format 4 on).
		setErr(fmt.Errorf("shard artifact format %d, want %d: an older shard holds only its range's net-2 side", st.Snapshot.Format, snapshot.Version))
		return
	}
	b.mu.Lock()
	reloaded := b.seen && (b.generation != st.Generation || !sameShard(b.shard, st.Snapshot.Shard))
	b.seen = true
	b.ready = true
	b.lastErr = ""
	b.generation = st.Generation
	b.users1 = st.Snapshot.Users1
	b.shard = st.Snapshot.Shard
	b.mu.Unlock()
	if reloaded {
		// The backend swapped artifacts behind the router's back (SIGHUP,
		// direct POST /v1/reload): a new artifact may renumber users, and
		// a stale token→index entry would owner-route net-1 lookups to the
		// wrong shard with no error. The router's own rollout clears the
		// cache too; this catches every out-of-band path the probe can see.
		rt.clearResolveCache()
	}
}

// sameShard reports whether two statusz shard blocks describe the same
// slice of the same parent artifact.
func sameShard(a, b *serve.StatusShard) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Lo == b.Lo && a.Hi == b.Hi && a.Epoch == b.Epoch && a.ParentFP == b.ParentFP
}

// tableEntry is one discovered range and the backends owning it.
type tableEntry struct {
	lo, hi   int32
	backends []*Backend
}

// table assembles the current range table from ready backends, plus
// whether it tiles [0, users1) completely (the readiness condition).
func (rt *Router) table() (entries []tableEntry, users1 int, complete bool) {
	byRange := map[[2]int32][]*Backend{}
	for _, b := range rt.backends {
		ready, _, u1, _, _ := b.snapshotState()
		if !ready {
			continue
		}
		lo, hi, ok := b.ownedRange()
		if !ok {
			continue
		}
		byRange[[2]int32{lo, hi}] = append(byRange[[2]int32{lo, hi}], b)
		if u1 > users1 {
			users1 = u1
		}
	}
	for k, bs := range byRange {
		entries = append(entries, tableEntry{lo: k[0], hi: k[1], backends: bs})
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].lo != entries[b].lo {
			return entries[a].lo < entries[b].lo
		}
		return entries[a].hi < entries[b].hi
	})
	if users1 == 0 || len(entries) == 0 {
		return entries, users1, false
	}
	want := int32(0)
	for _, e := range entries {
		if e.lo != want {
			return entries, users1, false
		}
		want = e.hi
	}
	return entries, users1, want == int32(users1)
}

// ownersOf returns the ready backends owning net-1 index i.
func (rt *Router) ownersOf(i int32) []*Backend {
	entries, _, _ := rt.table()
	for _, e := range entries {
		if i >= e.lo && i < e.hi {
			return e.backends
		}
	}
	return nil
}

// anyBackends returns every ready backend, for requests any replica
// answers alike, starting one past where the previous call started:
// retries and the hedge walk on from there.
func (rt *Router) anyBackends() []*Backend {
	var ready []*Backend
	for _, b := range rt.backends {
		if ok, _, _, _, _ := b.snapshotState(); ok {
			ready = append(ready, b)
		}
	}
	if len(ready) < 2 {
		return ready
	}
	start := int(rt.rotation.Add(1) % uint64(len(ready)))
	return append(ready[start:len(ready):len(ready)], ready[:start]...)
}

// proxied is a captured backend response, replayable verbatim.
type proxied struct {
	status      int
	contentType string
	body        []byte
}

func (p *proxied) write(w http.ResponseWriter) error {
	if p.contentType != "" {
		w.Header().Set("Content-Type", p.contentType)
	}
	w.WriteHeader(p.status)
	w.Write(p.body)
	if p.status >= 500 {
		// Counted as a router error in metrics, but the response is
		// already on the wire — ServeHTTP must not write a second body.
		return errAlreadyWritten{status: p.status}
	}
	return nil
}

// errAlreadyWritten marks a failure whose response bytes have already
// been sent (a proxied 5xx): metrics should count it, the handler must
// not write again.
type errAlreadyWritten struct{ status int }

func (e errAlreadyWritten) Error() string { return fmt.Sprintf("backend answered %d", e.status) }

// fetch performs one backend request and captures the response. The
// path is escaped already; the raw query is forwarded verbatim rather
// than re-parsed, so a '#' in it stays query, as alignd would read it.
func (rt *Router) fetch(b *Backend, method, pathAndQuery string, body []byte) (*proxied, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	path, query, _ := strings.Cut(pathAndQuery, "?")
	req, err := http.NewRequest(method, b.URL+path, rdr)
	if err != nil {
		return nil, err
	}
	req.URL.RawQuery = query
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &proxied{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: raw}, nil
}

// retryable reports whether another replica may answer differently: a
// transport failure or a 5xx that signals replica (not request)
// trouble.
func retryable(p *proxied, err error) bool {
	if err != nil {
		return true
	}
	return p.status == http.StatusBadGateway || p.status == http.StatusServiceUnavailable
}

// tryBackends proxies the request across candidates with retries,
// capped-jitter backoff and (when configured and possible) a hedged
// second attempt. The first acceptable response wins; the last
// response of any kind is returned when every attempt fails. The
// second return value names the backend whose response was used.
func (rt *Router) tryBackends(cands []*Backend, method, pathAndQuery string, body []byte) (*proxied, *Backend, error) {
	if len(cands) == 0 {
		return nil, nil, serve.Errorf(http.StatusServiceUnavailable, "no ready backend for %s", pathAndQuery)
	}
	var last *proxied
	var lastFrom *Backend
	var lastErr error
	seq := rt.requests.Add(1)
	for attempt := 1; attempt <= rt.opts.Retry.Attempts; attempt++ {
		b := cands[(attempt-1)%len(cands)]
		p, from, err := rt.fetchHedged(b, cands, method, pathAndQuery, body)
		if !retryable(p, err) {
			return p, from, nil
		}
		if p != nil {
			last, lastFrom = p, from
		}
		lastErr = err
		if attempt < rt.opts.Retry.Attempts {
			rt.cRetry.Inc()
			time.Sleep(retry.Delay(attempt, seq))
		}
	}
	if last != nil {
		return last, lastFrom, nil
	}
	return nil, nil, serve.Errorf(http.StatusBadGateway, "every backend failed for %s: %v", pathAndQuery, lastErr)
}

// fetchHedged races the primary against one delayed hedge on another
// replica when hedging is configured.
func (rt *Router) fetchHedged(primary *Backend, cands []*Backend, method, pathAndQuery string, body []byte) (*proxied, *Backend, error) {
	if rt.opts.HedgeAfter <= 0 || len(cands) < 2 {
		p, err := rt.fetch(primary, method, pathAndQuery, body)
		return p, primary, err
	}
	type result struct {
		p    *proxied
		from *Backend
		err  error
	}
	ch := make(chan result, 2)
	go func() {
		p, err := rt.fetch(primary, method, pathAndQuery, body)
		ch <- result{p, primary, err}
	}()
	timer := time.NewTimer(rt.opts.HedgeAfter)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.p, r.from, r.err
	case <-timer.C:
	}
	var hedge *Backend
	for _, b := range cands {
		if b != primary {
			hedge = b
			break
		}
	}
	rt.cHedge.Inc()
	go func() {
		p, err := rt.fetch(hedge, method, pathAndQuery, body)
		ch <- result{p, hedge, err}
	}()
	// First non-retryable answer wins; if the first arrival is bad,
	// wait for the other.
	r := <-ch
	if !retryable(r.p, r.err) {
		return r.p, r.from, r.err
	}
	r2 := <-ch
	if !retryable(r2.p, r2.err) {
		return r2.p, r2.from, r2.err
	}
	return r.p, r.from, r.err
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	endpoint, err := rt.route(w, r)
	if _, written := err.(errAlreadyWritten); err != nil && !written {
		// Router-origin errors read like backend ones.
		serve.WriteError(w, err)
	}
	rt.metrics.Observe(endpoint, time.Since(start), err != nil)
}

func (rt *Router) route(w http.ResponseWriter, r *http.Request) (string, error) {
	path := r.URL.Path
	switch path {
	case "/healthz", "/readyz", "/statusz", "/metricsz":
		// The router's own documents are GET-only, as alignd's are.
		if name := path[1:]; r.Method != http.MethodGet {
			return name, serve.Errorf(http.StatusMethodNotAllowed, "%s is GET", name)
		}
	}
	switch {
	case path == "/healthz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return "healthz", nil
	case path == "/readyz":
		return "readyz", rt.handleReady(w)
	case path == "/statusz":
		return "statusz", rt.handleStatus(w)
	case path == "/metricsz":
		w.Header().Set("Content-Type", telemetry.PromContentType)
		return "metricsz", rt.metrics.WriteProm(w)
	case path == "/v1/rollout" || path == "/v1/reload":
		return "rollout", rt.handleRollout(w, r)
	case path == "/v1/score":
		return "score", rt.handleScore(w, r)
	case strings.HasPrefix(path, "/v1/match/"):
		return "match", rt.handleLookup(w, r, strings.TrimPrefix(path, "/v1/match/"))
	case strings.HasPrefix(path, "/v1/candidates/"):
		return "candidates", rt.handleLookup(w, r, strings.TrimPrefix(path, "/v1/candidates/"))
	case strings.HasPrefix(path, "/v1/resolve/"):
		return "resolve", rt.proxyAny(w, r, nil)
	default:
		return "unknown", serve.Errorf(http.StatusNotFound, "no such endpoint %q", path)
	}
}

// handleReady: the router is ready when the discovered table tiles the
// whole net-1 user space with at least one ready backend per range.
func (rt *Router) handleReady(w http.ResponseWriter) error {
	entries, users1, complete := rt.table()
	if !complete {
		return serve.Errorf(http.StatusServiceUnavailable, "range table incomplete: %d ranges over %d users", len(entries), users1)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
	return nil
}

// routerStatus is the alignr /statusz shape.
type routerStatus struct {
	Ready     bool                   `json:"ready"`
	Users1    int                    `json:"users1"`
	Ranges    []routerRange          `json:"ranges"`
	Backends  []routerBackend        `json:"backends"`
	Endpoints []serve.EndpointReport `json:"endpoints"`
}

type routerRange struct {
	Lo       int32    `json:"lo"`
	Hi       int32    `json:"hi"`
	Backends []string `json:"backends"`
}

type routerBackend struct {
	URL        string `json:"url"`
	Ready      bool   `json:"ready"`
	Error      string `json:"error,omitempty"`
	Generation uint64 `json:"generation"`
	Epoch      int64  `json:"epoch,omitempty"`
	Range      string `json:"range,omitempty"`
}

func (rt *Router) handleStatus(w http.ResponseWriter) error {
	entries, users1, complete := rt.table()
	st := routerStatus{Ready: complete, Users1: users1, Endpoints: rt.metrics.Report()}
	for _, e := range entries {
		rr := routerRange{Lo: e.lo, Hi: e.hi}
		for _, b := range e.backends {
			rr.Backends = append(rr.Backends, b.URL)
		}
		st.Ranges = append(st.Ranges, rr)
	}
	for _, b := range rt.backends {
		ready, gen, _, shard, lastErr := b.snapshotState()
		rb := routerBackend{URL: b.URL, Ready: ready, Error: lastErr, Generation: gen}
		if shard != nil {
			rb.Epoch = shard.Epoch
			rb.Range = fmt.Sprintf("[%d,%d)", shard.Lo, shard.Hi)
		}
		st.Backends = append(st.Backends, rb)
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(st)
}

// readBody reads a request body to forward: one byte past alignd's own
// bound and no further, so an oversized request reaches a backend still
// oversized and earns the canonical 413 instead of being cut into a
// different error here.
func readBody(r *http.Request) []byte {
	body, _ := io.ReadAll(io.LimitReader(r.Body, serve.MaxRequestBody+1))
	return body
}

// proxyAny sends the original request to any ready backend — the path
// for requests every backend answers identically (net-2 lookups,
// resolve, malformed inputs, full-table questions).
func (rt *Router) proxyAny(w http.ResponseWriter, r *http.Request, body []byte) error {
	if body == nil && r.Body != nil {
		body = readBody(r)
	}
	if r.Method == http.MethodGet {
		body = nil
	}
	p, _, err := rt.tryBackends(rt.anyBackends(), r.Method, r.URL.RequestURI(), body)
	if err != nil {
		return err
	}
	return p.write(w)
}

// resolveNet1 maps a net-1 user token to its index via a backend's
// /v1/resolve, through a bounded cache. The proxied error response is
// returned for non-200 outcomes so the caller can decide to replay the
// original request instead.
func (rt *Router) resolveNet1(token string) (int32, bool) {
	rt.resolveMu.Lock()
	idx, ok := rt.resolveCache[token]
	rt.resolveMu.Unlock()
	if ok {
		rt.cResolveHit.Inc()
		return idx, true
	}
	rt.cResolveMiss.Inc()
	p, _, err := rt.tryBackends(rt.anyBackends(), http.MethodGet, "/v1/resolve/1/"+url.PathEscape(token), nil)
	if err != nil || p.status != http.StatusOK {
		return 0, false
	}
	var res struct {
		Index int32 `json:"index"`
	}
	if json.Unmarshal(p.body, &res) != nil {
		return 0, false
	}
	rt.resolveMu.Lock()
	if len(rt.resolveCache) >= resolveCacheMax {
		rt.resolveCache = make(map[string]int32)
	}
	rt.resolveCache[token] = res.Index
	rt.resolveMu.Unlock()
	return res.Index, true
}

// clearResolveCache drops the token cache (called after rollouts: a
// new artifact may renumber users).
func (rt *Router) clearResolveCache() {
	rt.resolveMu.Lock()
	rt.resolveCache = make(map[string]int32)
	rt.resolveMu.Unlock()
}

// handleLookup routes /v1/match and /v1/candidates. Net-1 requests are
// owner-routed; net-2 requests go to any replica, since every shard
// carries the whole net-2 read side. Either way one backend's answer is
// proxied verbatim. Anything that does not parse cleanly is replayed
// against any backend so the error body is the canonical alignd one.
func (rt *Router) handleLookup(w http.ResponseWriter, r *http.Request, tail string) error {
	parts := strings.SplitN(tail, "/", 2)
	if len(parts) != 2 || parts[1] == "" {
		return rt.proxyAny(w, r, nil)
	}
	// alignd parses {net} with Atoi, so "+1" and "01" are net 1 too.
	if net, err := strconv.Atoi(parts[0]); err != nil || net != 1 {
		return rt.proxyAny(w, r, nil)
	}
	idx, ok := rt.resolveNet1(parts[1])
	if !ok {
		// Unknown user or resolution trouble: the canonical answer
		// (404 body, or whatever alignd says) comes from a replay.
		return rt.proxyAny(w, r, nil)
	}
	p, _, err := rt.tryBackends(rt.ownersOf(idx), r.Method, r.URL.RequestURI(), nil)
	if err != nil {
		return err
	}
	return p.write(w)
}

// handleScore owner-routes pool lookups by their net-1 index and sends
// everything else (rescores, malformed bodies) to any backend. Which is
// which is alignd's own reading of the body (serve.PoolLookup).
func (rt *Router) handleScore(w http.ResponseWriter, r *http.Request) error {
	body := readBody(r)
	if i, ok := serve.PoolLookup(body); ok {
		if owners := rt.ownersOf(i); len(owners) > 0 {
			p, _, err := rt.tryBackends(owners, r.Method, r.URL.RequestURI(), body)
			if err != nil {
				return err
			}
			return p.write(w)
		}
		// An index outside every range is outside the pool everywhere;
		// any backend answers the canonical 404.
	}
	return rt.proxyAny(w, r, body)
}

// rolloutResponse reports a rolling reload.
type rolloutResponse struct {
	Reloaded []string `json:"reloaded"`
	Failed   []string `json:"failed,omitempty"`
}

// handleRollout reloads every backend sequentially, health-ordered:
// not-ready backends first (they serve no traffic, so a bad artifact
// is discovered before any healthy replica is touched), then ready
// ones one at a time, each polled back to readiness before the next —
// a rolling restart that never takes two healthy replicas of a range
// down at once.
//
// The body is alignd's reload body, read the way alignd reads it before
// any backend is touched: one alignd refuses is refused here with
// alignd's status and message. A path is always refused — each backend
// re-opens its own artifact, so no one path names them all.
func (rt *Router) handleRollout(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return serve.Errorf(http.StatusMethodNotAllowed, "rollout is POST")
	}
	path, err := serve.ParseReloadRequest(w, r)
	if err != nil {
		return err
	}
	if path != "" {
		return serve.ErrReloadPath
	}
	rt.cRollout.Inc()
	ordered := make([]*Backend, 0, len(rt.backends))
	var healthy []*Backend
	for _, b := range rt.backends {
		if ready, _, _, _, _ := b.snapshotState(); ready {
			healthy = append(healthy, b)
		} else {
			ordered = append(ordered, b)
		}
	}
	ordered = append(ordered, healthy...)
	var resp rolloutResponse
	for _, b := range ordered {
		if err := rt.reloadBackend(b); err != nil {
			resp.Failed = append(resp.Failed, fmt.Sprintf("%s: %v", b.URL, err))
			continue
		}
		resp.Reloaded = append(resp.Reloaded, b.URL)
	}
	rt.clearResolveCache()
	rt.Refresh()
	if len(resp.Failed) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		return json.NewEncoder(w).Encode(resp)
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(resp)
}

func (rt *Router) reloadBackend(b *Backend) error {
	p, err := rt.fetch(b, http.MethodPost, "/v1/reload", []byte("{}"))
	if err != nil {
		return err
	}
	if p.status != http.StatusOK {
		return fmt.Errorf("reload answered %d: %s", p.status, strings.TrimSpace(string(p.body)))
	}
	// Poll the replica back to readiness before touching the next one.
	deadline := time.Now().Add(rt.opts.Retry.Timeout)
	for {
		rp, err := rt.fetch(b, http.MethodGet, "/readyz", nil)
		if err == nil && rp.status == http.StatusOK {
			rt.probe(b)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("did not return to readiness after reload")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
