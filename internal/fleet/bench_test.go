package fleet

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"testing"

	"github.com/activeiter/activeiter/internal/snapshot"
)

func benchGet(b *testing.B, url string) {
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s = %d", url, resp.StatusCode)
	}
}

// BenchmarkServeDirect is the baseline: a net-1 candidates lookup against one
// alignd over loopback, no router in the path.
func BenchmarkServeDirect(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	parent := randomSnapshot(b, rng, 64, 64, 4)
	srv := backendServer(b, parent, b.TempDir(), "mono")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, srv.URL+fmt.Sprintf("/v1/candidates/1/left-u%d", i%64))
	}
}

// BenchmarkRouterHop is the same lookup through the alignr tier over a
// 2-shard fleet: resolve (cached) + owner routing + verbatim proxy.
// The delta over BenchmarkServeDirect is the router-hop overhead.
func BenchmarkRouterHop(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	parent := randomSnapshot(b, rng, 64, 64, 4)
	srv, _ := newFleet(b, parent, []snapshot.UserRange{{Lo: 0, Hi: 32}, {Lo: 32, Hi: 64}}, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, srv.URL+fmt.Sprintf("/v1/candidates/1/left-u%d", i%64))
	}
}

// BenchmarkRouterNet2 is a net-2 candidates lookup through the same
// fleet: no resolve, one verbatim hop to any replica, since every shard
// carries the whole net-2 read side.
func BenchmarkRouterNet2(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	parent := randomSnapshot(b, rng, 64, 64, 4)
	srv, _ := newFleet(b, parent, []snapshot.UserRange{{Lo: 0, Hi: 32}, {Lo: 32, Hi: 64}}, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, srv.URL+fmt.Sprintf("/v1/candidates/2/right-u%d", i%64))
	}
}
