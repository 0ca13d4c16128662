package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestMetricszEndpoint scrapes /metricsz off a live server and checks
// the exposition includes the traffic the scrape itself generated
// counters for.
func TestMetricszEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	defer srv.Close()
	if _, err := http.Get(srv.URL + "/v1/match/1/0"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE activeiter_serve_requests_total counter",
		`activeiter_serve_requests_total{endpoint="match"} 1`,
		"activeiter_serve_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metricsz missing %q:\n%s", want, out)
		}
	}
}

// TestQPSSlidingWindow is the regression test for the old QPS formula,
// which divided lifetime requests by uptime: a server idle for an hour
// then bursting 120 req/s reported ~0.03 QPS. The windowed report must
// reflect the burst, and traffic older than the window must stop
// counting.
func TestQPSSlidingWindow(t *testing.T) {
	m := NewMetrics()
	clock := m.start
	m.now = func() time.Time { return clock }

	// An early burst right after boot...
	for i := 0; i < 50; i++ {
		m.Observe("x", time.Millisecond, false)
	}
	// ...then a long idle hour.
	clock = clock.Add(time.Hour)

	// Fresh load: 120 requests spread over the last 2 seconds.
	for i := 0; i < 120; i++ {
		m.Observe("x", time.Millisecond, false)
		if i == 59 {
			clock = clock.Add(time.Second)
		}
	}
	rep := m.Report()
	if len(rep) != 1 || rep[0].Requests != 170 {
		t.Fatalf("report = %+v", rep)
	}
	qps := rep[0].QPS
	// 120 windowed requests over the 60s window = 2 QPS. The old
	// uptime formula would report 170/3601 ≈ 0.05.
	if qps < 1.5 || qps > 3 {
		t.Errorf("windowed QPS = %v, want ≈2", qps)
	}

	// Another idle hour: the window drains and QPS returns to zero
	// even though lifetime requests stay at 170.
	clock = clock.Add(time.Hour)
	rep = m.Report()
	if rep[0].QPS != 0 {
		t.Errorf("QPS after idle hour = %v, want 0", rep[0].QPS)
	}
	if rep[0].Requests != 170 {
		t.Errorf("lifetime requests = %d, want 170", rep[0].Requests)
	}
}

// TestQPSYoungServer: a server alive for less than the window divides
// by its actual age, not by window seconds that never existed.
func TestQPSYoungServer(t *testing.T) {
	m := NewMetrics()
	clock := m.start
	m.now = func() time.Time { return clock }
	for i := 0; i < 30; i++ {
		m.Observe("x", time.Millisecond, false)
	}
	clock = clock.Add(2 * time.Second)
	for i := 0; i < 30; i++ {
		m.Observe("x", time.Millisecond, false)
	}
	rep := m.Report()
	// 60 requests over ~2s of life ≈ 30 QPS; dividing by the full 60s
	// window would claim 1 QPS.
	if rep[0].QPS < 10 {
		t.Errorf("young-server QPS = %v, want ≈30", rep[0].QPS)
	}
}

func TestMetricsProm(t *testing.T) {
	m := NewMetrics()
	m.Observe("match", 100*time.Microsecond, false)
	m.Observe("match", 200*time.Microsecond, true)
	var sb strings.Builder
	if err := m.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`activeiter_serve_requests_total{endpoint="match"} 2`,
		`activeiter_serve_errors_total{endpoint="match"} 1`,
		`activeiter_serve_latency_microseconds_count{endpoint="match"} 2`,
		"# TYPE activeiter_serve_latency_microseconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
