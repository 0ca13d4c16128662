package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"

	"github.com/activeiter/activeiter/internal/retry"
	"github.com/activeiter/activeiter/internal/serve"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// parseFuzzRequest turns a fuzz input into the request an HTTP server
// would hand its handler: the request line and body are written out and
// read back with http.ReadRequest. ok is false for an input no server
// would deliver (an invalid method, a target that does not parse), which
// the server itself refuses before any handler runs.
func parseFuzzRequest(method, path, query string, body []byte) (r *http.Request, ok bool) {
	target := (&url.URL{Path: path, RawQuery: query}).RequestURI()
	raw := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: fuzz\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		method, target, len(body), body)
	r, err := http.ReadRequest(bufio.NewReader(bytes.NewReader([]byte(raw))))
	return r, err == nil
}

// FuzzRouter drives the alignr router with arbitrary methods, paths, raw
// queries and bodies, over two alignd shards of a small split artifact;
// rollout and reload are left out (they rewrite the fleet). The router
// must not panic, must allocate at most a constant plus a multiple of
// what it was sent, must answer every request it answers 200 with the
// bytes — status, Content-Type and body, generation masked — of a
// monolithic alignd handler over the whole artifact, and must give every
// error as {"error": string}. /statusz and /metricsz describe the router
// itself and are exempt from the comparison only.
func FuzzRouter(f *testing.F) {
	for _, s := range []struct {
		method, path, query, body string
	}{
		{"GET", "/v1/match/1/left-u2", "", ""},
		{"GET", "/v1/match/1/7", "", ""},
		{"GET", "/v1/match/2/right-u3", "", ""},
		{"GET", "/v1/match/9/3", "", ""},
		{"GET", "/v1/match/01/ghost", "", ""},
		{"GET", "/v1/match/1", "", ""},
		{"GET", "/v1/candidates/1/0", "k=2", ""},
		{"GET", "/v1/candidates/1/left-u11", "k=abc&k=1", ""},
		{"GET", "/v1/candidates/2/right-u1", "k=-3", ""},
		{"GET", "/v1/candidates/1/left-u3", "k=2#x", ""},
		{"GET", "/v1/match/1/left-u3#x", "", ""},
		{"GET", "/v1/candidates/2/4", "k=99999999999999999999", ""},
		{"GET", "/v1/resolve/1/left-u5", "", ""},
		{"GET", "/v1/resolve/2/nobody", "", ""},
		{"POST", "/v1/match/1/left-u2", "", `{}`},
		{"POST", "/v1/score", "", `{"i":0,"j":0}`},
		{"POST", "/v1/score", "", `{"i":9,"j":3}`},
		{"POST", "/v1/score", "", `{"i":-4,"j":3}`},
		{"POST", "/v1/score", "", `{"features":[0.5,9,1]}`},
		{"POST", "/v1/score", "", `{"features":[1e308,0,1e308]}`},
		{"POST", "/v1/score", "", `{"i":`},
		{"POST", "/v1/score", "", `{"i":9,"j":3,"features":null}`},
		{"POST", "/v1/score", "", `{"i":9,"j":3} trailing`},
		{"PUT", "/v1/score", "", `{"i":0,"j":0}`},
		{"GET", "/healthz", "", ""},
		{"HEAD", "/readyz", "", ""},
		{"GET", "/statusz", "", ""},
		{"DELETE", "/metricsz", "", ""},
		{"GET", "/nope", "", ""},
	} {
		f.Add(s.method, s.path, s.query, []byte(s.body))
	}
	parent := randomSnapshot(f, rand.New(rand.NewSource(35)), 14, 12, 3)
	ix, err := serve.NewIndex(parent)
	if err != nil {
		f.Fatal(err)
	}
	st := &serve.Store{}
	st.Swap(ix)
	mono := serve.NewHandler(st, nil, serve.HandlerOptions{})
	_, rt := newFleet(f, parent, []snapshot.UserRange{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 14}}, Options{Retry: retry.Policy{Attempts: 1}})
	f.Fuzz(func(t *testing.T, method, path, query string, body []byte) {
		if path == "/v1/rollout" || path == "/v1/reload" {
			return
		}
		r, ok := parseFuzzRequest(method, path, query, body)
		if !ok {
			return
		}
		got := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt.ServeHTTP(got, r)
		runtime.ReadMemStats(&after)
		// The constant covers the router's own documents, the backend leg
		// (client and httptest server share this process) and what the
		// fuzz engine allocates meanwhile (TotalAlloc is process-wide).
		sent := len(method) + len(path) + len(query) + len(body)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*sent+4<<20); grew > limit {
			t.Fatalf("%s %q?%q with %d body bytes allocated %d, limit %d", method, path, query, len(body), grew, limit)
		}
		if got.Code == http.StatusOK {
			if r.URL.Path == "/statusz" || r.URL.Path == "/metricsz" {
				return
			}
			r, _ = parseFuzzRequest(method, path, query, body)
			want := httptest.NewRecorder()
			mono.ServeHTTP(want, r)
			gotBody := generationField.ReplaceAll(got.Body.Bytes(), []byte(`"generation":0`))
			wantBody := generationField.ReplaceAll(want.Body.Bytes(), []byte(`"generation":0`))
			if want.Code != got.Code || want.Header().Get("Content-Type") != got.Header().Get("Content-Type") || !bytes.Equal(gotBody, wantBody) {
				t.Fatalf("%s %q?%q %q:\n router: %d %s %s\n mono:   %d %s %s", method, path, query, body,
					got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(),
					want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
			}
			return
		}
		var e map[string]any
		if err := json.Unmarshal(got.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s %q?%q: %d error body is not JSON: %v: %s", method, path, query, got.Code, err, got.Body.Bytes())
		}
		if msg, ok := e["error"].(string); !ok || len(e) != 1 || msg == "" {
			t.Fatalf("%s %q?%q: %d error body is not {\"error\": string}: %s", method, path, query, got.Code, got.Body.Bytes())
		}
	})
}
