package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"
)

// fuzzStatuses are the answers a handler with reload disabled may give:
// anything else — a 500 above all — means some input reached a path no
// request should.
var fuzzStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusNotFound:              true,
	http.StatusMethodNotAllowed:      true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusNotImplemented:        true,
	http.StatusServiceUnavailable:    true,
}

// FuzzHandler drives the alignd HTTP surface with arbitrary methods,
// paths, raw queries (?k= included) and bodies over a small in-memory
// snapshot with reload disabled. The handler must not panic, must
// answer one of fuzzStatuses, must give every error as {"error": string}
// and must allocate at most a constant plus a multiple of what it was
// sent.
func FuzzHandler(f *testing.F) {
	for _, s := range []struct {
		method, path, query, body string
	}{
		{"GET", "/v1/match/1/left-u2", "", ""},
		{"GET", "/v1/match/2/3", "", ""},
		{"GET", "/v1/match/9/3", "", ""},
		{"GET", "/v1/match/1/ghost", "", ""},
		{"GET", "/v1/candidates/1/0", "k=2", ""},
		{"GET", "/v1/candidates/2/right-u1", "k=-3", ""},
		{"GET", "/v1/candidates/1/0", "k=abc&k=1", ""},
		{"GET", "/v1/candidates/1/0", "k=99999999999999999999", ""},
		{"GET", "/v1/resolve/2/right-u1", "", ""},
		{"POST", "/v1/score", "", `{"i":0,"j":0}`},
		{"POST", "/v1/score", "", `{"i":7,"j":3}`},
		{"POST", "/v1/score", "", `{"features":[0.5,9,1]}`},
		{"POST", "/v1/score", "", `{"features":[0.5,9,1],"shard":0}`},
		{"POST", "/v1/score", "", `{"features":[0.5,9,1],"shard":1}`},
		{"POST", "/v1/score", "", `{"features":[1e308,0,1e308]}`},
		{"POST", "/v1/score", "", `{"i":0,"features":[1]}`},
		{"POST", "/v1/score", "", `{"i":`},
		{"POST", "/v1/reload", "", `{"path":"/elsewhere"}`},
		{"GET", "/healthz", "", ""},
		{"GET", "/readyz", "", ""},
		{"GET", "/statusz", "", ""},
		{"GET", "/metricsz", "", ""},
		{"DELETE", "/statusz", "", ""},
		{"GET", "/nope", "", ""},
	} {
		f.Add(s.method, s.path, s.query, []byte(s.body))
	}
	st := &Store{}
	st.Swap(newTestIndex(f, 1.0, 0))
	h := NewHandler(st, nil, HandlerOptions{})
	f.Fuzz(func(t *testing.T, method, path, query string, body []byte) {
		r := &http.Request{
			Method:        method,
			URL:           &url.URL{Path: path, RawQuery: query},
			Header:        http.Header{"Content-Type": {"application/json"}},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
		}
		w := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, r)
		runtime.ReadMemStats(&after)
		// The constant covers the largest fixed answers (statusz, the
		// process-wide metrics exposition) and what the fuzz engine
		// allocates meanwhile (TotalAlloc is process-wide).
		sent := len(method) + len(path) + len(query) + len(body)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*sent+1<<20); grew > limit {
			t.Fatalf("%s %q?%q with %d body bytes allocated %d, limit %d", method, path, query, len(body), grew, limit)
		}
		if !fuzzStatuses[w.Code] {
			t.Fatalf("%s %q?%q %q: status %d: %s", method, path, query, body, w.Code, w.Body.Bytes())
		}
		if w.Code == http.StatusOK {
			return
		}
		var e map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s %q?%q: %d error body is not JSON: %v: %s", method, path, query, w.Code, err, w.Body.Bytes())
		}
		if msg, ok := e["error"].(string); !ok || len(e) != 1 || msg == "" {
			t.Fatalf("%s %q?%q: %d error body is not {\"error\": string}: %s", method, path, query, w.Code, w.Body.Bytes())
		}
	})
}
