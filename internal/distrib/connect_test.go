package distrib

import (
	"os"
	"testing"

	"github.com/activeiter/activeiter/internal/partition"
)

// refusingFirstDial returns a chaos transport over inner whose seed makes
// it refuse dial 0 and accept the next eight — the ChaosTransport
// draws each dial's fate from (Seed, ordinal) alone, so the search is
// exact.
func refusingFirstDial(t *testing.T, inner Transport) *ChaosTransport {
	t.Helper()
	const rate = 0.5
	refused := func(seed int64, ord uint64) bool {
		probe := &ChaosTransport{Opts: ChaosOptions{Seed: seed}}
		return probe.rng(1<<63|ord).Float64() < rate
	}
search:
	for seed := int64(1); seed < 1<<16; seed++ {
		if !refused(seed, 0) {
			continue
		}
		for ord := uint64(1); ord <= 8; ord++ {
			if refused(seed, ord) {
				continue search
			}
		}
		return &ChaosTransport{Inner: inner, Opts: ChaosOptions{Seed: seed, RefuseRate: rate}}
	}
	t.Fatal("no chaos seed refuses exactly the first dial")
	return nil
}

// TestConnectAheadEqualsLazy: connecting a session's slots before the
// plan exists changes when the connections are made and nothing else.
// The same rounds through a session connected ahead and one that
// connects on first dispatch give identical votes and an identical
// transport audit — over loopback (every offer hits), over real worker
// processes (every connection ships), and when the ahead-of-time dial is
// refused, which must leave the slot cold for an ordinary redial.
func TestConnectAheadEqualsLazy(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	const rounds = 2

	run := func(t *testing.T, transport Transport, workers int, ahead bool) (*partition.Result, *Metrics) {
		t.Helper()
		plan := fx.freshPlan(t, 12)
		sess, err := NewSession(transport, fx.pair, Options{Train: fx.train, Workers: workers, Base: fx.base})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if ahead {
			sess.ConnectAhead(fx.k)
		}
		var res *partition.Result
		for r := 0; r < rounds; r++ {
			plan.Rebudget(partition.RoundBudget(12, rounds, r))
			if res, _, err = sess.Run(plan, fx.oracle); err != nil {
				t.Fatalf("round %d: %v", r+1, err)
			}
			if r < rounds-1 {
				plan.AppendLabels(res.QueriedLabels())
			}
		}
		return res, sess.Metrics()
	}

	cases := []struct {
		name      string
		transport func(t *testing.T) Transport
		workers   int
		ships     int
	}{
		{"loopback", func(*testing.T) Transport { return Loopback{} }, 2, 0},
		// One slot: whichever way the refused dial is met — before the
		// round or as its first attempt — the session ends up with exactly
		// one handshaken connection.
		{"ahead-dial-refused", func(t *testing.T) Transport { return refusingFirstDial(t, Loopback{}) }, 1, 0},
	}
	if exe, err := os.Executable(); err == nil && !testing.Short() {
		exec := &Exec{Cmd: exe, Env: append(os.Environ(), workerEnv+"=1"), Stderr: os.Stderr}
		cases = append(cases, struct {
			name      string
			transport func(t *testing.T) Transport
			workers   int
			ships     int
		}{"subprocess", func(*testing.T) Transport { return exec }, 2, 2})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lazyRes, lazy := run(t, tc.transport(t), tc.workers, false)
			aheadTransport := tc.transport(t)
			aheadRes, ahead := run(t, aheadTransport, tc.workers, true)
			assertSameAlignment(t, aheadRes, lazyRes, fx.plan)
			if ahead.SeedBytes != lazy.SeedBytes || ahead.SeedShips != lazy.SeedShips ||
				ahead.JobBytes != lazy.JobBytes || ahead.CacheHits != lazy.CacheHits {
				t.Errorf("audit differs:\n ahead %+v\n lazy  %+v", ahead, lazy)
			}
			if ahead.SeedShips != tc.ships || ahead.CacheHits != fx.k || ahead.Fallbacks != 0 {
				t.Errorf("ahead session: %d ships, %d cache hits, %d fallbacks; want %d, %d, 0",
					ahead.SeedShips, ahead.CacheHits, ahead.Fallbacks, tc.ships, fx.k)
			}
			if chaos, ok := aheadTransport.(*ChaosTransport); ok {
				// The refusal was spent on the connect, not on a shard attempt.
				if s := chaos.Stats(); s.Refused != 1 || ahead.Retries != 0 || lazy.Retries != 1 {
					t.Errorf("refused %d dials, ahead retried %d, lazy retried %d; want 1, 0, 1", s.Refused, ahead.Retries, lazy.Retries)
				}
			}
		})
	}
}
