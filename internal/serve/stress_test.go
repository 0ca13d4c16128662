package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/activeiter/activeiter/internal/snapshot"
)

// markerOfShift ties the stress fixtures together: generation markers
// and match shifts come in pairs, so any response mixing one
// generation's score with the other's matching is detectable.
var stressGens = []struct {
	marker float64
	shift  int
}{
	{1.0, 0},
	{2.0, 1},
}

// TestConcurrentQueriesDuringReload is the -race reload stress: N
// goroutines hammer match/top-k/score lookups on the Store while a
// swapper flips the index between two snapshot generations underneath.
// Every answer must be internally consistent with exactly ONE
// generation — the marker score, the match shift, and the stamped
// generation number must all agree — which fails if a request ever
// observes a half-swapped index (and the race detector additionally
// flags any unsynchronized access).
func TestConcurrentQueriesDuringReload(t *testing.T) {
	st := &Store{}
	indexes := make([]*Index, len(stressGens))
	for k, g := range stressGens {
		indexes[k] = newTestIndex(t, g.marker, g.shift)
	}
	// genMarker records, per published generation, which fixture it
	// serves. Only the swapper writes, and it records a generation BEFORE
	// the swap that makes it visible (the store stamps generations 1, 2,
	// … in swap order), so a reader can never observe an unrecorded one.
	var genMarker sync.Map
	var published uint64
	publish := func(k int) {
		// Each swap builds a fresh Index (generations are stamped at
		// swap time, and sharing one Index across swaps would mutate
		// .Generation under readers).
		ix := newTestIndex(t, stressGens[k].marker, stressGens[k].shift)
		published++
		genMarker.Store(published, k)
		if gen := st.Swap(ix); gen != published {
			t.Errorf("swap %d stamped generation %d", published, gen)
		}
	}
	publish(0)

	const (
		readers    = 8
		iterations = 3000
		swaps      = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; s < swaps; s++ {
			publish((s + 1) % len(stressGens))
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				u := int32((r + it) % fixtureUsers)
				ix := st.Current()
				k, ok := genMarker.Load(ix.Generation)
				if !ok {
					errs <- fmt.Errorf("generation %d served before publication", ix.Generation)
					return
				}
				want := stressGens[k.(int)]
				wantJ := int32((int(u) + want.shift) % fixtureUsers)

				m, ok := ix.MatchFor(1, u)
				if !ok {
					errs <- fmt.Errorf("gen %d: no match for %d", ix.Generation, u)
					return
				}
				if m.Index != wantJ || m.Score != want.marker {
					errs <- fmt.Errorf("gen %d: torn match for %d: got (%d, %v), want (%d, %v)",
						ix.Generation, u, m.Index, m.Score, wantJ, want.marker)
					return
				}
				cands := ix.CandidatesFor(1, u, 1)
				if len(cands) != 1 || cands[0].Score != want.marker {
					errs <- fmt.Errorf("gen %d: torn candidates for %d: %+v", ix.Generation, u, cands)
					return
				}
				p, ok := ix.PoolScore(u, wantJ)
				if !ok || p.Score != want.marker {
					errs <- fmt.Errorf("gen %d: torn pool score for (%d,%d): %+v ok=%v", ix.Generation, u, wantJ, p, ok)
					return
				}
				score, _, err := ix.Rescore(-1, []float64{1, 0, 0})
				if err != nil || score != want.marker {
					errs <- fmt.Errorf("gen %d: torn rescore: %v %v", ix.Generation, score, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHTTPConcurrentReload repeats the consistency property through the
// full HTTP surface: concurrent clients against a live server while
// the artifact on disk alternates — each fixture renamed over the
// served path (WriteFile's temp + rename), then /v1/reload. Every JSON
// response must be wholly one generation.
func TestHTTPConcurrentReload(t *testing.T) {
	srv, path := newTestServer(t)
	snaps := make([]*snapshot.Snapshot, len(stressGens))
	for k, g := range stressGens {
		snaps[k] = fixtureSnapshot(t, g.marker, g.shift)
	}

	// Generation 1 is snapshot A (marker 1.0, shift 0); each reload k
	// (1-based) publishes generation k+1 serving stressGens[k%2].
	// Responses carry the generation, so the expected marker/shift is
	// derivable from it alone: generation g serves stressGens[(g-1)%2].
	const (
		clients  = 6
		requests = 120
		reloads  = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= reloads; k++ {
			if err := snaps[k%2].WriteFile(path); err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(srv.URL+"/v1/reload", "application/json", strings.NewReader(`{}`))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("reload %d: status %d", k, resp.StatusCode)
				return
			}
		}
	}()

	client := srv.Client()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < requests; it++ {
				u := (c + it) % fixtureUsers
				resp, err := client.Get(fmt.Sprintf("%s/v1/match/1/%d", srv.URL, u))
				if err != nil {
					errs <- err
					return
				}
				var m matchResponse
				err = json.NewDecoder(resp.Body).Decode(&m)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("match %d: status %d err %v", u, resp.StatusCode, err)
					return
				}
				want := stressGens[int(m.Generation-1)%len(stressGens)]
				wantJ := int32((u + want.shift) % fixtureUsers)
				if m.Match == nil || m.Match.Index != wantJ || m.Match.Score != want.marker {
					errs <- fmt.Errorf("generation %d answered with foreign data: %+v (want j=%d score=%v)",
						m.Generation, m.Match, wantJ, want.marker)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
