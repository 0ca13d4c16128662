package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/activeiter/activeiter/internal/snapshot"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// MaxRequestBody bounds the JSON body a POST endpoint reads: the
// endpoints are unauthenticated, and the largest legitimate body (a
// feature vector to rescore) is a few kilobytes. The alignr router in
// front forwards at most this much plus one byte, so an oversized
// request earns the same 413 through either door.
const MaxRequestBody = 1 << 20

// HandlerOptions configures the HTTP surface.
type HandlerOptions struct {
	// DefaultK is the candidate-list depth when a request has no ?k=;
	// 0 means the snapshot's precomputed depth.
	DefaultK int
	// SnapshotPath is the one artifact Reload opens — at startup, on
	// SIGHUP and on POST /v1/reload. Empty disables the endpoint (it
	// answers 501).
	SnapshotPath string
}

// Handler is the alignd HTTP surface over a Store:
//
//	GET  /healthz                      — liveness (always 200: the process is up)
//	GET  /readyz                       — readiness (503 until a snapshot is loaded, or after a failed reload)
//	GET  /statusz                      — snapshot provenance + per-endpoint QPS/latency
//	GET  /v1/match/{net}/{user}        — O(1) matched-partner lookup
//	GET  /v1/candidates/{net}/{user}   — top-k ranked candidates (?k= caps the list)
//	POST /v1/score                     — pool-link lookup {"i","j"} or predictor rescore {"features",["shard"]}
//	POST /v1/reload                    — Reload: re-open SnapshotPath and swap it in
//
// {net} is 1 or 2; {user} is an external user ID or a numeric index.
// Every JSON answer carries the serving generation, and each request
// resolves the Store pointer exactly once, so a response is wholly one
// snapshot generation even while a reload swaps underneath.
type Handler struct {
	store   *Store
	metrics *Metrics
	opts    HandlerOptions

	// Last Reload outcome, for /readyz and /statusz: a failed reload
	// keeps the old generation serving (the swap never happens) but
	// flips readiness so orchestrators stop routing new traffic to a
	// replica whose artifact on disk is bad. Reload records and swaps
	// under this lock.
	reloadMu       sync.Mutex
	lastReloadErr  string
	lastReloadUnix int64
}

// NewHandler wraps the store. metrics may be nil (a fresh registry is
// created).
func NewHandler(store *Store, metrics *Metrics, opts HandlerOptions) *Handler {
	if metrics == nil {
		metrics = NewMetrics()
	}
	return &Handler{store: store, metrics: metrics, opts: opts}
}

// Metrics exposes the registry (for tests and for recording bench
// figures).
func (h *Handler) Metrics() *Metrics { return h.metrics }

// httpError is an error with the HTTP status WriteError answers it
// with.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// Errorf returns an error that WriteError answers with status and the
// formatted message.
func Errorf(status int, format string, args ...any) error {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// WriteError writes err as the uniform JSON error body,
// {"error": message}, under the status Errorf gave it; any other error
// is a 500. alignd and alignr answer every error through it.
func WriteError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if he, ok := err.(*httpError); ok {
		status = he.status
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	endpoint, err := h.route(w, r)
	if err != nil {
		WriteError(w, err)
	}
	h.metrics.Observe(endpoint, time.Since(start), err != nil)
}

// route dispatches one request and returns the endpoint label to
// account it under. Go 1.21's ServeMux has no method/wildcard patterns,
// so the two-segment paths parse by hand.
func (h *Handler) route(w http.ResponseWriter, r *http.Request) (string, error) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		return "healthz", h.handleHealth(w, r)
	case path == "/readyz":
		return "readyz", h.handleReady(w, r)
	case path == "/statusz":
		return "statusz", h.handleStatus(w, r)
	case path == "/metricsz":
		return "metricsz", h.handleMetrics(w, r)
	case path == "/v1/score":
		return "score", h.handleScore(w, r)
	case path == "/v1/reload":
		return "reload", h.handleReload(w, r)
	case strings.HasPrefix(path, "/v1/match/"):
		return "match", h.handleLookup(w, r, strings.TrimPrefix(path, "/v1/match/"), false)
	case strings.HasPrefix(path, "/v1/candidates/"):
		return "candidates", h.handleLookup(w, r, strings.TrimPrefix(path, "/v1/candidates/"), true)
	case strings.HasPrefix(path, "/v1/resolve/"):
		return "resolve", h.handleResolve(w, r, strings.TrimPrefix(path, "/v1/resolve/"))
	default:
		return "unknown", Errorf(http.StatusNotFound, "no such endpoint %q", path)
	}
}

// current resolves the served index once per request.
func (h *Handler) current() (*Index, error) {
	ix := h.store.Current()
	if ix == nil {
		return nil, Errorf(http.StatusServiceUnavailable, "no snapshot loaded")
	}
	return ix, nil
}

// readJSON decodes a request body of at most MaxRequestBody bytes.
func readJSON(w http.ResponseWriter, r *http.Request, what string, into any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody)).Decode(into)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return Errorf(http.StatusRequestEntityTooLarge, "%s request body is over %d bytes", what, tooBig.Limit)
	}
	if err != nil {
		return Errorf(http.StatusBadRequest, "bad %s request: %v", what, err)
	}
	return nil
}

func (h *Handler) writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// handleHealth is pure liveness: it answers 200 whenever the process
// can serve HTTP at all. Restart-on-unhealthy orchestration keys off
// this; a replica that is up but not yet (or no longer) serviceable is
// readyz's business, not a reason to kill the process.
func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return Errorf(http.StatusMethodNotAllowed, "healthz is GET")
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	return nil
}

// handleReady is readiness: a snapshot is loaded AND the last reload
// (if any) succeeded. Load balancers key traffic off this.
func (h *Handler) handleReady(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return Errorf(http.StatusMethodNotAllowed, "readyz is GET")
	}
	if h.store.Current() == nil {
		return Errorf(http.StatusServiceUnavailable, "no snapshot loaded")
	}
	h.reloadMu.Lock()
	reloadErr := h.lastReloadErr
	h.reloadMu.Unlock()
	if reloadErr != "" {
		return Errorf(http.StatusServiceUnavailable, "last reload failed: %s", reloadErr)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
	return nil
}

// StatusResponse is the statusz JSON shape. Exported, like
// StatusSnapshot and StatusShard, because the alignr router decodes it
// to discover the fleet's range table and each shard's format.
type StatusResponse struct {
	Generation uint64          `json:"generation"`
	UptimeSec  float64         `json:"uptime_sec"`
	Snapshot   *StatusSnapshot `json:"snapshot,omitempty"`
	// LastReloadError is the most recent Reload failure (empty after a
	// success); LastReloadUnix stamps the most recent Reload either way,
	// the boot load included.
	LastReloadError string           `json:"last_reload_error,omitempty"`
	LastReloadUnix  int64            `json:"last_reload_unix,omitempty"`
	Endpoints       []EndpointReport `json:"endpoints"`
}

// StatusSnapshot is the provenance block of the served artifact.
// Format is the artifact format version (snapshot.Version) the
// process reads: the alignr router refuses a shard whose format it
// does not route for.
type StatusSnapshot struct {
	Format      int          `json:"format"`
	Facade      string       `json:"facade"`
	CreatedUnix int64        `json:"created_unix"`
	Net1        string       `json:"net1"`
	Net2        string       `json:"net2"`
	FP1         string       `json:"fp1"`
	FP2         string       `json:"fp2"`
	Users1      int          `json:"users1"`
	Users2      int          `json:"users2"`
	Matches     int          `json:"matches"`
	Pool        int          `json:"pool"`
	TopK        int          `json:"top_k"`
	Shards      []int        `json:"shards,omitempty"`
	Shard       *StatusShard `json:"shard,omitempty"`
}

// StatusShard is the split provenance block a shard artifact exposes:
// the alignr router discovers the fleet's range table from it instead
// of being configured with one.
type StatusShard struct {
	Lo       int32  `json:"lo"`
	Hi       int32  `json:"hi"`
	Index    int    `json:"index"`
	Count    int    `json:"count"`
	Epoch    int64  `json:"epoch"`
	ParentFP string `json:"parent_fp"`
}

// handleMetrics serves the Prometheus text exposition: this server's
// per-endpoint counters plus the process-wide telemetry registry.
func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return Errorf(http.StatusMethodNotAllowed, "metricsz is GET")
	}
	w.Header().Set("Content-Type", telemetry.PromContentType)
	return h.metrics.WriteProm(w)
}

func (h *Handler) handleStatus(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return Errorf(http.StatusMethodNotAllowed, "statusz is GET")
	}
	resp := StatusResponse{UptimeSec: h.metrics.Uptime().Seconds(), Endpoints: h.metrics.Report()}
	h.reloadMu.Lock()
	resp.LastReloadError = h.lastReloadErr
	resp.LastReloadUnix = h.lastReloadUnix
	h.reloadMu.Unlock()
	if ix := h.store.Current(); ix != nil {
		meta := ix.Meta()
		u1, u2, matches, pool := ix.Counts()
		resp.Generation = ix.Generation
		resp.Snapshot = &StatusSnapshot{
			Format:      snapshot.Version,
			Facade:      meta.Facade,
			CreatedUnix: meta.CreatedUnix,
			Net1:        meta.Net1,
			Net2:        meta.Net2,
			FP1:         fmt.Sprintf("%016x", meta.FP1),
			FP2:         fmt.Sprintf("%016x", meta.FP2),
			Users1:      u1,
			Users2:      u2,
			Matches:     matches,
			Pool:        pool,
			TopK:        ix.TopK(),
			Shards:      ix.Shards(),
		}
		if si := meta.Shard; si != nil {
			resp.Snapshot.Shard = &StatusShard{
				Lo:       si.Range.Lo,
				Hi:       si.Range.Hi,
				Index:    si.Index,
				Count:    si.Count,
				Epoch:    si.Epoch,
				ParentFP: fmt.Sprintf("%016x", si.ParentFP),
			}
		}
	}
	return h.writeJSON(w, resp)
}

// parseNetUser splits the "{net}/{user}" tail of a lookup path.
func parseNetUser(ix *Index, tail string) (int, int32, error) {
	parts := strings.SplitN(tail, "/", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return 0, 0, Errorf(http.StatusBadRequest, "path must be /v1/.../{net}/{user}")
	}
	net, err := strconv.Atoi(parts[0])
	if err != nil || (net != 1 && net != 2) {
		return 0, 0, Errorf(http.StatusBadRequest, "net must be 1 or 2, got %q", parts[0])
	}
	user, ok := ix.ResolveUser(net, parts[1])
	if !ok {
		return 0, 0, Errorf(http.StatusNotFound, "unknown user %q on net %d", parts[1], net)
	}
	return net, user, nil
}

// matchResponse answers /v1/match.
type matchResponse struct {
	Generation uint64 `json:"generation"`
	Net        int    `json:"net"`
	User       string `json:"user"`
	Index      int32  `json:"index"`
	Match      *struct {
		Index    int32   `json:"index"`
		ID       string  `json:"id"`
		Score    float64 `json:"score"`
		HasScore bool    `json:"has_score"`
	} `json:"match"`
}

// candidatesResponse answers /v1/candidates.
type candidatesResponse struct {
	Generation uint64      `json:"generation"`
	Net        int         `json:"net"`
	User       string      `json:"user"`
	Index      int32       `json:"index"`
	K          int         `json:"k"`
	Candidates []Candidate `json:"candidates"`
}

func (h *Handler) handleLookup(w http.ResponseWriter, r *http.Request, tail string, candidates bool) error {
	if r.Method != http.MethodGet {
		return Errorf(http.StatusMethodNotAllowed, "lookup endpoints are GET")
	}
	ix, err := h.current()
	if err != nil {
		return err
	}
	net, user, err := parseNetUser(ix, tail)
	if err != nil {
		return err
	}
	if candidates {
		k := h.opts.DefaultK
		if kq := r.URL.Query().Get("k"); kq != "" {
			k, err = strconv.Atoi(kq)
			if err != nil || k < 0 {
				// Explicit rejection, not a silent fall back to the default
				// depth: a client that sent k=-3 or k=1e3 would otherwise
				// read a differently sized answer with no hint why.
				return Errorf(http.StatusBadRequest, "bad k %q: must be a non-negative integer", kq)
			}
		}
		items := ix.CandidatesFor(net, user, k)
		return h.writeJSON(w, candidatesResponse{
			Generation: ix.Generation,
			Net:        net,
			User:       ix.UserID(net, user),
			Index:      user,
			K:          k,
			Candidates: items,
		})
	}
	m, ok := ix.MatchFor(net, user)
	if !ok {
		return Errorf(http.StatusNotFound, "no matched partner for user %d on net %d (generation %d)", user, net, ix.Generation)
	}
	resp := matchResponse{Generation: ix.Generation, Net: net, User: ix.UserID(net, user), Index: user}
	resp.Match = &struct {
		Index    int32   `json:"index"`
		ID       string  `json:"id"`
		Score    float64 `json:"score"`
		HasScore bool    `json:"has_score"`
	}{m.Index, m.ID, m.Score, m.HasScore}
	return h.writeJSON(w, resp)
}

// resolveResponse answers /v1/resolve: the index a user token maps to,
// without the cost of a full lookup. The alignr router leans on it —
// shard ownership is decided by net-1 index, and any replica can
// resolve because every shard carries the full user tables.
type resolveResponse struct {
	Generation uint64 `json:"generation"`
	Net        int    `json:"net"`
	User       string `json:"user"`
	Index      int32  `json:"index"`
	Users      int    `json:"users"`
}

func (h *Handler) handleResolve(w http.ResponseWriter, r *http.Request, tail string) error {
	if r.Method != http.MethodGet {
		return Errorf(http.StatusMethodNotAllowed, "resolve is GET")
	}
	ix, err := h.current()
	if err != nil {
		return err
	}
	net, user, err := parseNetUser(ix, tail)
	if err != nil {
		return err
	}
	users1, users2, _, _ := ix.Counts()
	users := users1
	if net == 2 {
		users = users2
	}
	return h.writeJSON(w, resolveResponse{
		Generation: ix.Generation,
		Net:        net,
		User:       ix.UserID(net, user),
		Index:      user,
		Users:      users,
	})
}

// scoreRequest is the /v1/score body: a pool-link lookup when I/J are
// set, a predictor rescore when Features is set.
type scoreRequest struct {
	I        *int32    `json:"i"`
	J        *int32    `json:"j"`
	Features []float64 `json:"features"`
	Shard    *int      `json:"shard"`
}

// poolLookup reports whether the body named a pool link and no features.
func (req *scoreRequest) poolLookup() bool {
	return req.I != nil && req.J != nil && req.Features == nil
}

// PoolLookup reports whether a /v1/score body is a pool-link lookup as
// the handler reads it — one JSON value, trailing bytes ignored,
// "features":null the same as no features — and the net-1 index it
// names. The alignr router owner-routes exactly these bodies.
func PoolLookup(body []byte) (i int32, ok bool) {
	var req scoreRequest
	if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil || !req.poolLookup() {
		return 0, false
	}
	return *req.I, true
}

// scoreResponse answers both /v1/score forms; Source says which path
// produced it ("pool" or "predictor").
type scoreResponse struct {
	Generation uint64  `json:"generation"`
	Source     string  `json:"source"`
	Score      float64 `json:"score"`
	HasScore   bool    `json:"has_score"`
	Label      float64 `json:"label"`
	Queried    bool    `json:"queried,omitempty"`
	Shard      *int    `json:"shard,omitempty"`
}

func (h *Handler) handleScore(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return Errorf(http.StatusMethodNotAllowed, "score is POST")
	}
	ix, err := h.current()
	if err != nil {
		return err
	}
	var req scoreRequest
	if err := readJSON(w, r, "score", &req); err != nil {
		return err
	}
	switch {
	case req.poolLookup():
		p, ok := ix.PoolScore(*req.I, *req.J)
		if !ok {
			return Errorf(http.StatusNotFound, "link (%d,%d) not in the candidate pool", *req.I, *req.J)
		}
		return h.writeJSON(w, scoreResponse{
			Generation: ix.Generation, Source: "pool",
			Score: p.Score, HasScore: p.HasScore, Label: p.Label, Queried: p.Queried,
		})
	case req.Features != nil && req.I == nil && req.J == nil:
		shard := -1
		if req.Shard != nil {
			shard = *req.Shard
		}
		score, label, err := ix.Rescore(shard, req.Features)
		if err != nil {
			return Errorf(http.StatusBadRequest, "%v", err)
		}
		resp := scoreResponse{Generation: ix.Generation, Source: "predictor", Score: score, HasScore: true, Label: label}
		if req.Shard != nil {
			resp.Shard = req.Shard
		}
		return h.writeJSON(w, resp)
	default:
		return Errorf(http.StatusBadRequest, `score wants {"i","j"} (pool lookup) or {"features"[,"shard"]} (rescore), not both`)
	}
}

// reloadRequest is the /v1/reload body. Path may only repeat the
// configured SnapshotPath: the endpoint is unauthenticated, so a body
// that could name any file could swap the served model for one of its
// choosing.
type reloadRequest struct {
	Path string `json:"path"`
}

// reloadResponse reports the freshly served generation.
type reloadResponse struct {
	Generation uint64 `json:"generation"`
	Path       string `json:"path"`
	Matches    int    `json:"matches"`
	Pool       int    `json:"pool"`
}

func (h *Handler) handleReload(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return Errorf(http.StatusMethodNotAllowed, "reload is POST")
	}
	if h.opts.SnapshotPath == "" {
		return Errorf(http.StatusNotImplemented, "reload is not configured")
	}
	var req reloadRequest
	if r.ContentLength != 0 {
		if err := readJSON(w, r, "reload", &req); err != nil {
			return err
		}
	}
	if req.Path != "" && req.Path != h.opts.SnapshotPath {
		return Errorf(http.StatusForbidden, "reload re-opens only the served artifact's path; rename the new artifact over it")
	}
	ix, err := h.Reload()
	if err != nil {
		return Errorf(http.StatusUnprocessableEntity, "%v", err)
	}
	_, _, matches, pool := ix.Counts()
	return h.writeJSON(w, reloadResponse{Generation: ix.Generation, Path: h.opts.SnapshotPath, Matches: matches, Pool: pool})
}

// Reload is the one way an artifact reaches the store — alignd's
// startup and -check, SIGHUP and POST /v1/reload all call it. It opens
// SnapshotPath and indexes it off to the side, records the outcome for
// /readyz and /statusz, and swaps the index in only on success: a
// corrupt or unindexable artifact never reaches the store, so the old
// generation keeps serving while the failure stays visible until a
// reload succeeds.
func (h *Handler) Reload() (*Index, error) {
	path := h.opts.SnapshotPath
	snap, err := snapshot.OpenFile(path)
	var ix *Index
	switch {
	case errors.Is(err, snapshot.ErrVersionMismatch):
		err = fmt.Errorf("open %s: %w (the artifact was written by a different release; re-export it or run a matching alignd)", path, err)
	case err != nil:
		err = fmt.Errorf("open %s: %w", path, err)
	default:
		if ix, err = NewIndex(snap); err != nil {
			err = fmt.Errorf("index %s: %w", path, err)
		}
	}
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	h.lastReloadUnix = time.Now().Unix()
	if err != nil {
		h.lastReloadErr = err.Error()
		return nil, err
	}
	h.lastReloadErr = ""
	h.store.Swap(ix)
	return ix, nil
}
