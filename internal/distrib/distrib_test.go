package distrib

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/retry"
	"github.com/activeiter/activeiter/internal/schema"
)

// workerEnv re-executes this test binary as a wire worker — the
// subprocess-transport tests talk to a genuinely separate process
// without needing a prebuilt binary on disk.
const workerEnv = "ACTIVEITER_TEST_WORKER"

// hangEnv re-executes this test binary as a worker that IGNORES the
// shutdown protocol: it drains stdin until close and then sleeps
// forever instead of exiting — the pathological child that Exec's
// kill-after-grace reap exists for.
const hangEnv = "ACTIVEITER_TEST_HANG"

func TestMain(m *testing.M) {
	if os.Getenv(hangEnv) == "1" {
		io.Copy(io.Discard, os.Stdin)
		time.Sleep(time.Hour)
		os.Exit(0)
	}
	if os.Getenv(workerEnv) == "1" {
		err := Serve(struct {
			io.Reader
			io.Writer
		}{os.Stdin, os.Stdout})
		if err != nil && err != io.EOF {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// distFixture builds the tiny pair, a K-shard plan with a non-zero
// budget, and the in-process reference result.
type distFixture struct {
	pair       *hetnet.AlignedPair
	base       *metadiag.Counter
	plan       *partition.Plan
	k          int
	trainPos   []hetnet.Anchor
	candidates []hetnet.Anchor
	oracle     active.Oracle
	train      TrainConfig
	ref        *partition.Result
}

// freshPlan re-plans the fixture's pools — session drivers mutate their
// plan (rebudget, label appends), so every driver needs its own.
// Planning is deterministic: the parts match fx.plan exactly.
func (fx *distFixture) freshPlan(t testing.TB, budget int) *partition.Plan {
	t.Helper()
	plan, err := buildPlan(fx.base, fx.trainPos, fx.candidates, budget, partition.Config{K: fx.k})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// buildPlan plans once from nothing: partition.SeedCached on an empty
// planner cache, then Assign.
func buildPlan(base *metadiag.Counter, trainPos, candidates []hetnet.Anchor, budget int, cfg partition.Config) (*partition.Plan, error) {
	var pl *partition.Planner
	s, err := partition.SeedCached(base, &pl, trainPos, cfg)
	if err != nil {
		return nil, err
	}
	return s.Assign(candidates, budget)
}

func newDistFixture(t testing.TB, k, budget int) *distFixture {
	t.Helper()
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return newDistFixtureOn(t, pair, k, budget)
}

// newDistFixtureOn is newDistFixture over a caller-supplied pair.
func newDistFixtureOn(t testing.TB, pair *hetnet.AlignedPair, k, budget int) *distFixture {
	t.Helper()
	n := len(pair.Anchors) / 2
	trainPos := pair.Anchors[:n]
	testPos := pair.Anchors[n:]
	rng := rand.New(rand.NewSource(11))
	neg, err := eval.SampleNegatives(pair, 8*len(pair.Anchors), rng)
	if err != nil {
		t.Fatal(err)
	}
	candidates := append(append([]hetnet.Anchor{}, testPos...), neg...)

	base, err := metadiag.NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildPlan(base, trainPos, candidates, budget, partition.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	oracle := active.NewTruthOracle(pair)
	var strat active.Strategy
	if budget > 0 {
		strat = active.Conflict{}
	}
	ref, err := partition.Align(base, plan, partition.TrainOptions{
		Features: schema.StandardLibrary().All(),
		Core:     core.Config{Budget: budget, Strategy: strat, Seed: 2019},
	}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	return &distFixture{
		pair: pair, base: base, plan: plan, k: k,
		trainPos: trainPos, candidates: candidates, oracle: oracle,
		train: TrainConfig{FeatureSet: FeaturesFull, Strategy: StrategyConflict, Seed: 2019},
		ref:   ref,
	}
}

// assertSameAlignment compares a distributed result against the
// in-process reference over every pool link: identical predicted
// anchors, labels, query sets and totals.
func assertSameAlignment(t *testing.T, got, want *partition.Result, plan *partition.Plan) {
	t.Helper()
	ga, wa := got.PredictedAnchors(), want.PredictedAnchors()
	if len(ga) != len(wa) {
		t.Fatalf("predicted %d anchors, reference %d", len(ga), len(wa))
	}
	for i := range wa {
		if ga[i] != wa[i] {
			t.Fatalf("anchor %d: %v, reference %v", i, ga[i], wa[i])
		}
	}
	if got.QueryCount() != want.QueryCount() {
		t.Errorf("query count %d, reference %d", got.QueryCount(), want.QueryCount())
	}
	if got.Rejected != want.Rejected {
		t.Errorf("rejected %d, reference %d", got.Rejected, want.Rejected)
	}
	for _, part := range plan.Parts {
		pool := append(append([]hetnet.Anchor{}, part.TrainPos...), part.Candidates...)
		for _, l := range pool {
			gl, gok := got.Label(l.I, l.J)
			wl, wok := want.Label(l.I, l.J)
			if gok != wok || gl != wl {
				t.Fatalf("label(%d,%d) = %v/%v, reference %v/%v", l.I, l.J, gl, gok, wl, wok)
			}
			if got.WasQueried(l.I, l.J) != want.WasQueried(l.I, l.J) {
				t.Fatalf("queried(%d,%d) diverges", l.I, l.J)
			}
			gs, _ := got.Score(l.I, l.J)
			ws, _ := want.Score(l.I, l.J)
			if gs != ws {
				t.Fatalf("score(%d,%d) = %v, reference %v", l.I, l.J, gs, ws)
			}
		}
	}
}

// TestLoopbackMatchesInProcess is the core distributed-equality
// property over the in-process loopback transport, with active
// learning exercising oracle round-trips: the seed handshake, wire
// serialization, remote training and streaming reconciliation must
// reproduce partition.Align exactly.
func TestLoopbackMatchesInProcess(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	coord := &Coordinator{Transport: Loopback{}, Opts: Options{Train: fx.train, Workers: 2}}
	res, metrics, err := coord.Run(fx.pair, fx.plan, fx.oracle)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAlignment(t, res, fx.ref, fx.plan)
	if metrics.Queries != res.QueryCount() {
		t.Errorf("metrics counted %d oracle round-trips, result reports %d", metrics.Queries, res.QueryCount())
	}
	if metrics.JobBytes <= 0 || metrics.ResultBytes <= 0 {
		t.Errorf("metrics did not count wire bytes: %+v", metrics)
	}
	if len(metrics.Shards) != len(fx.plan.Parts) {
		t.Errorf("metrics cover %d shards, want %d", len(metrics.Shards), len(fx.plan.Parts))
	}
}

// TestUnreadLinkTypeRidesTheSeed: a pair with a link type no feature
// reads — location→location, outside the social/authorship/attribute
// shape any per-shard cut of the networks could reason about — aligns
// exactly like partition.Align. Nothing is cut per shard: the whole pair,
// that link table included, rides the seed once. Over loopback the
// worker forks the coordinator's own counter; over a real worker process
// the table crosses the wire and is rebuilt there.
func TestUnreadLinkTypeRidesTheSeed(t *testing.T) {
	opaque, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*hetnet.Network{opaque.G1, opaque.G2} {
		if err := g.DeclareLink("near", hetnet.Location, hetnet.Location); err != nil {
			t.Fatal(err)
		}
		if err := g.AddLink("near", 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	fx := newDistFixtureOn(t, opaque, 3, 0)
	transports := map[string]Transport{"loopback": Loopback{}}
	if exe, err := os.Executable(); err == nil && !testing.Short() {
		transports["subprocess"] = &Exec{Cmd: exe, Env: append(os.Environ(), workerEnv+"=1"), Stderr: os.Stderr}
	}
	for name, tr := range transports {
		t.Run(name, func(t *testing.T) {
			coord := &Coordinator{Transport: tr, Opts: Options{Train: fx.train, Workers: 2}}
			res, m, err := coord.Run(fx.pair, fx.plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameAlignment(t, res, fx.ref, fx.plan)
			if shipped := m.SeedShips > 0; shipped != (name == "subprocess") {
				t.Errorf("seed ships = %d over %s", m.SeedShips, name)
			}
		})
	}
}

// TestSubprocessMatchesInProcess runs the same equality property over
// the Exec transport: each worker is this test binary re-executed in
// worker mode, so shards really cross a process boundary.
func TestSubprocessMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess transport in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot locate test binary:", err)
	}
	fx := newDistFixture(t, 3, 12)
	tr := &Exec{
		Cmd:    exe,
		Env:    append(os.Environ(), workerEnv+"=1"),
		Stderr: os.Stderr,
	}
	coord := &Coordinator{Transport: tr, Opts: Options{Train: fx.train, Workers: 2}}
	res, metrics, err := coord.Run(fx.pair, fx.plan, fx.oracle)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAlignment(t, res, fx.ref, fx.plan)
	if metrics.Retries != 0 {
		t.Errorf("unexpected retries: %d", metrics.Retries)
	}
}

// TestTCPMatchesInProcess covers the TCP transport against an
// in-process ListenAndServe worker bound to a loopback port.
func TestTCPMatchesInProcess(t *testing.T) {
	ready := make(chan string, 1)
	go func() {
		if err := ListenAndServe("127.0.0.1:0", ready); err != nil {
			// The listener dying after tests pass is fine; dying before
			// ready would hang the select below.
			t.Log("listener:", err)
		}
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Skip("TCP listener did not come up (sandboxed network?)")
	}
	fx := newDistFixture(t, 2, 6)
	coord := &Coordinator{Transport: NewTCP(addr), Opts: Options{Train: fx.train, Workers: 2}}
	res, _, err := coord.Run(fx.pair, fx.plan, fx.oracle)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAlignment(t, res, fx.ref, fx.plan)
}

// flakyTransport fails its first `failures` dials with a dead
// connection, then delegates — the shard retry path.
type flakyTransport struct {
	inner Transport
	mu    sync.Mutex
	fails int
}

type deadConn struct{}

func (deadConn) Read([]byte) (int, error)  { return 0, io.ErrUnexpectedEOF }
func (deadConn) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
func (deadConn) Close() error              { return nil }

func (f *flakyTransport) Dial() (io.ReadWriteCloser, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fails > 0 {
		f.fails--
		return deadConn{}, nil
	}
	return f.inner.Dial()
}

// TestCoordinatorRetriesFailedShards: a worker connection dying must
// re-dispatch the shard on a fresh connection, count the retry, and
// still produce the reference alignment (no double votes, no holes).
func TestCoordinatorRetriesFailedShards(t *testing.T) {
	fx := newDistFixture(t, 3, 0)
	tr := &flakyTransport{inner: Loopback{}, fails: 2}
	coord := &Coordinator{Transport: tr, Opts: Options{Train: fx.train, Workers: 2}}
	res, metrics, err := coord.Run(fx.pair, fx.plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAlignment(t, res, fx.ref, fx.plan)
	if metrics.Retries == 0 {
		t.Error("flaky transport produced no retries")
	}
	attempts := 0
	for _, s := range metrics.Shards {
		attempts += s.Attempts
	}
	if attempts <= len(fx.plan.Parts) {
		t.Errorf("attempts %d do not reflect retries over %d shards", attempts, len(fx.plan.Parts))
	}
}

// TestCoordinatorAbortsAfterRetryBudget: a job workers always reject
// (unknown strategy) must exhaust the shard's attempts, fail its
// in-process fallback the same way, and abort the round with the
// worker's error and the attempt count. The aborted round still returns
// its metrics, every shard listed with its final attempt count.
func TestCoordinatorAbortsAfterRetryBudget(t *testing.T) {
	fx := newDistFixture(t, 2, 0)
	bad := fx.train
	bad.Strategy = "bogus"
	coord := &Coordinator{Transport: Loopback{}, Opts: Options{Train: bad, Workers: 1, Retry: retry.Policy{Attempts: 2}}}
	res, m, err := coord.Run(fx.pair, fx.plan, nil)
	if err == nil {
		t.Fatal("run with an unresolvable strategy succeeded")
	}
	if res != nil {
		t.Error("aborted run returned a non-nil result")
	}
	if !strings.Contains(err.Error(), "unknown strategy") {
		t.Errorf("error does not carry the worker failure: %v", err)
	}
	// Two transport attempts, then the fallback.
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error %q does not carry the attempt count", err)
	}
	if m == nil {
		t.Fatal("aborted run returned nil metrics")
	}
	if len(m.Shards) != fx.k {
		t.Fatalf("aborted run lists %d shards, want %d", len(m.Shards), fx.k)
	}
	exhausted := 0
	for _, sm := range m.Shards {
		if sm.Attempts == 3 && sm.Fallback {
			exhausted++
		}
	}
	if exhausted == 0 || m.Retries == 0 || m.Fallbacks == 0 {
		t.Errorf("no shard shows the exhausted attempts: retries %d, fallbacks %d, %+v", m.Retries, m.Fallbacks, m.Shards)
	}
}

// TestCoordinatorRejectsBudgetWithoutOracle mirrors core.Train's
// guard at the coordination layer, before any job ships.
func TestCoordinatorRejectsBudgetWithoutOracle(t *testing.T) {
	fx := newDistFixture(t, 2, 6)
	coord := &Coordinator{Transport: Loopback{}, Opts: Options{Train: fx.train}}
	if _, _, err := coord.Run(fx.pair, fx.plan, nil); err == nil {
		t.Fatal("budgeted plan without an oracle accepted")
	}
}

// TestServeRejectsVersionSkew: a coordinator speaking a future protocol
// version must be turned away at the handshake.
func TestServeRejectsVersionSkew(t *testing.T) {
	here, there := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- Serve(there) }()
	// Hand-build a Hello frame with a bumped version byte.
	go func() {
		io.Copy(io.Discard, here) // drain the worker's Hello
	}()
	var fr []byte
	{
		buf := &strings.Builder{}
		if err := WriteFrame(struct{ io.Writer }{buf}, FrameHello, &Hello{Role: "coordinator"}); err != nil {
			t.Fatal(err)
		}
		fr = []byte(buf.String())
	}
	fr[6] = Version + 1
	if _, err := here.Write(fr); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !strings.Contains(fmt.Sprint(err), "version mismatch") {
			t.Errorf("worker accepted skewed version: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not reject the skewed handshake")
	}
	here.Close()
}
