package activeiter

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/distrib"
	"github.com/activeiter/activeiter/internal/fleet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/serve"
	"github.com/activeiter/activeiter/internal/setsync"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// The differential chain: one configuration runs through every hop from
// label to answer — train on every executor, snapshot and split, serve
// behind the router, mutate and delta-sync, roll out under traffic — and
// every hop asserts its invariants with the checkers below.

// chainCase is one configuration of the chain.
type chainCase struct {
	name                   string
	pair                   *AlignedPair
	trainPos, testPos, neg []Anchor
	opts                   Options
	chaos                  int64 // ChaosTransport seed
	ranges                 []snapshot.UserRange
	contradicting, honest  bool
	oversize               bool // hop 3 also sends a body over alignd's bound
}

func (c *chainCase) candidates() []Anchor { return append(append([]Anchor{}, c.testPos...), c.neg...) }

// chainOracle is the truth oracle, remembering every link it was asked.
type chainOracle struct {
	truth Oracle
	mu    sync.Mutex
	asked map[Anchor]bool
}

func (o *chainOracle) Label(a Anchor) float64 {
	o.mu.Lock()
	o.asked[a] = true
	o.mu.Unlock()
	return o.truth.Label(a)
}

// TestChain runs the chain over three pinned cases and a seeded draw: 12
// configurations under -short, 24 otherwise, each value of every drawn
// option appearing at least once.
func TestChain(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	pinned := func(name string, budget int, panel *OracleConfig, honest bool) chainCase {
		return chainCase{name: name, pair: pair, trainPos: trainPos, testPos: testPos, neg: neg, contradicting: !honest, honest: honest,
			opts: Options{Budget: budget, Seed: 1, Partitions: 1, OracleConfig: panel}}
	}
	cases := []chainCase{
		// A panel that contradicts itself: New once predicted anchors that
		// broke one-to-one where NewPartitioned(K=1) did not.
		pinned("noisy-panel", 40, &OracleConfig{Honest: 2, Noisy: 3, FlipProb: 0.4, Replicas: 3, Seed: 5}, false),
		pinned("adversarial-panel", 40, &OracleConfig{Adversarial: 3, Replicas: 3, Seed: 5}, false),
		// One part with a budget under an honest panel and the truth.
		pinned("honest-panel", 20, honestConfig(), true),
	}
	n := 24
	if testing.Short() {
		n = 12
	}
	cases = append(cases, drawChainCases(t, n)...)
	cases[0].oversize = true
	for i := range cases {
		c := &cases[i]
		c.ranges = randomRanges(rand.New(rand.NewSource(int64(i))), c.pair.G1.NodeCount(User))
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			runChain(t, c)
		})
	}
}

// drawChainCases draws n configurations. Each option's values are dealt
// from a permutation of the case indices, so with n at least the largest
// value count every value is drawn.
func drawChainCases(t *testing.T, n int) []chainCase {
	rng := rand.New(rand.NewSource(2019))
	perms := make([][]int, 7)
	for d := range perms {
		perms[d] = rng.Perm(n)
	}
	strategies := []StrategyKind{StrategyConflict, StrategyRandom, StrategyUncertainty}
	var out []chainCase
	for c := 0; c < n; c++ {
		pick := func(d, k int) int { return perms[d][c] % k }
		cfg := datagen.Tiny()
		cfg.Seed = 1 + rng.Int63n(1000)
		pair, err := GenerateDataset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nTrain := len(pair.Anchors) / 4
		neg, err := SampleNegatives(pair, 6*len(pair.Anchors), rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			t.Fatal(err)
		}
		cc := chainCase{pair: pair, trainPos: pair.Anchors[:nTrain], testPos: pair.Anchors[nTrain:], neg: neg, chaos: rng.Int63()}
		cc.opts = Options{
			Strategy:   strategies[pick(1, 3)],
			Features:   []FeatureSet{FullFeatures, PathFeatures}[pick(2, 2)],
			Partitions: 1 + pick(3, 4),
			Rounds:     []int{0, 1, 3}[pick(4, 3)],
			Workers:    1 + pick(5, 2),
			Seed:       rng.Int63n(1000),
		}
		if pick(0, 2) == 1 {
			cc.opts.Budget = 5 + rng.Intn(96)
		}
		switch pick(6, 3) {
		case 1:
			cc.honest = true
			cc.opts.OracleConfig = &OracleConfig{Honest: 5, Replicas: 3, Seed: rng.Int63()}
		case 2:
			cc.contradicting = true
			cc.opts.OracleConfig = &OracleConfig{Honest: 2, Noisy: 3, FlipProb: 0.4, Replicas: 3, Seed: rng.Int63()}
		}
		o := cc.opts
		cc.name = fmt.Sprintf("data=%d/budget=%d/%s/features=%d/K=%d/rounds=%d/workers=%d/panel=%d",
			cfg.Seed, o.Budget, o.Strategy, o.Features, o.Partitions, o.Rounds, o.Workers, pick(6, 3))
		out = append(out, cc)
	}
	return out
}

// randomRanges tiles [0, n1) with 1–4 ranges at random cut points.
func randomRanges(rng *rand.Rand, n1 int) []snapshot.UserRange {
	cuts := map[int32]bool{0: true, int32(n1): true}
	for parts := 1 + rng.Intn(4); len(cuts) < parts+1; {
		cuts[int32(1+rng.Intn(n1-1))] = true
	}
	var sorted []int32
	for c := range cuts {
		sorted = append(sorted, c)
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	var out []snapshot.UserRange
	for i := 0; i+1 < len(sorted); i++ {
		out = append(out, snapshot.UserRange{Lo: sorted[i], Hi: sorted[i+1]})
	}
	return out
}

func runChain(t *testing.T, c *chainCase) {
	// Hop 1: train on every executor; an all-honest panel must align as
	// the truth oracle does.
	sharded := trainEverywhere(t, c, c.opts)
	if c.honest {
		truthOpts := c.opts
		truthOpts.OracleConfig = nil
		sameSharded(t, "honest panel vs truth", sharded["partitioned"], trainEverywhere(t, c, truthOpts)["partitioned"])
	}

	// Hop 2: snapshot every result. Every artifact is byte-equal but for
	// the facade label, and a split merges back to the parent.
	snaps := map[string]*Snapshot{}
	for name, res := range sharded {
		facade := SnapshotDistributed
		if name == "partitioned" || name == "planThenAlign" {
			facade = SnapshotPartitioned
		}
		snaps[name] = snapshotOf(t, c, facade, res, c.opts)
	}
	if c.opts.Partitions <= 1 {
		snaps["monolithic"] = snapshotOf(t, c, SnapshotMonolithic, sharded["partitioned"], c.opts)
	}
	a := snaps["partitioned"]
	aBytes := encodeMasked(t, a)
	for name, s := range snaps {
		if !bytes.Equal(encodeMasked(t, s), aBytes) {
			t.Errorf("%s artifact differs from the partitioned one", name)
		}
	}
	shardsA := splitChecked(t, a, c.ranges, aBytes)

	// Hop 3: the shards behind the router answer every request byte for
	// byte like one alignd over the whole artifact.
	monoA := handlerOver(t, a, "")
	router, paths := newFleet(t, shardsA)
	reqs := chainRequests(a, rand.New(rand.NewSource(c.opts.Seed)))
	hop3 := reqs
	if c.oversize {
		// One byte over alignd's body bound: the router must hand the
		// backend enough of it to earn the canonical 413. A backend lingers
		// half a second closing such a connection, so one case carries it.
		hop3 = append(hop3, chainRequest{http.MethodPost, "/v1/score", strings.Repeat(" ", serve.MaxRequestBody) + `{"i":0,"j":0}`})
	}
	for _, rq := range hop3 {
		if got, want := rq.send(router), rq.send(monoA); got != want {
			t.Errorf("%s %s %.60q:\n router: %v\n mono:   %v", rq.method, rq.path, rq.body, got, want)
		}
	}

	// Hop 4: retrain on the next seed to get B, then pull B over setsync
	// holding A: B's bytes, and no delta attempt that failed.
	bOpts := c.opts
	bOpts.Seed++
	pb, err := NewPartitioned(c.pair, bOpts)
	if err != nil {
		t.Fatal(err)
	}
	bRes, err := pb.Align(c.trainPos, c.candidates(), NewTruthOracle(c.pair))
	if err != nil {
		t.Fatal(err)
	}
	b := snapshotOf(t, c, SnapshotPartitioned, bRes, bOpts)
	var served sync.WaitGroup
	synced, stats, err := setsync.Pull(func() (net.Conn, error) {
		near, far := net.Pipe()
		served.Add(1)
		go func() {
			defer served.Done()
			defer far.Close()
			_ = setsync.Serve(far, b, setsync.Options{}) // Pull reports what this side's failures cause
		}()
		return near, nil
	}, a, setsync.Options{})
	served.Wait()
	if err != nil || stats.Fallback != "" {
		t.Fatalf("setsync pull: %v (fallback %q)", err, stats.Fallback)
	}
	if !bytes.Equal(encode(t, synced), encode(t, b)) {
		t.Errorf("setsync (%s) pulled an artifact that is not B", stats.Mode)
	}

	// Hop 5: roll the fleet out to B's shards while readers run. Every
	// answer is A's or B's monolithic one, none a 5xx, and B's after.
	for i, sh := range splitChecked(t, b, c.ranges, encodeMasked(t, b)) {
		if err := sh.WriteFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	monoB := handlerOver(t, b, "")
	var stop atomic.Bool
	var wg sync.WaitGroup
	read := func(rq chainRequest, final bool) {
		got := rq.send(router)
		wantA, wantB := rq.send(monoA).masked(), rq.send(monoB).masked()
		if got.status >= 500 || (got.masked() != wantB && (final || got.masked() != wantA)) {
			t.Errorf("%s %s %.60q during rollout (final %v):\n router: %v\n A:      %v\n B:      %v", rq.method, rq.path, rq.body, final, got, wantA, wantB)
		}
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				read(reqs[i%len(reqs)], false)
			}
		}(w)
	}
	roll := (chainRequest{method: http.MethodPost, path: "/v1/rollout"}).send(router)
	stop.Store(true)
	wg.Wait()
	if roll.status != http.StatusOK {
		t.Fatalf("rollout: %v", roll)
	}
	for _, rq := range reqs {
		read(rq, true)
	}
}

// trainEverywhere runs one configuration on every executor, checks each
// result's invariants, and checks the executors against each other.
func trainEverywhere(t *testing.T, c *chainCase, opts Options) map[string]*PartitionedResult {
	t.Helper()
	newOracle := func() *chainOracle { return &chainOracle{truth: NewTruthOracle(c.pair), asked: map[Anchor]bool{}} }
	cands := c.candidates()
	sharded := map[string]*PartitionedResult{}
	sharded["planThenAlign"] = planThenAlign(t, c.pair, opts, c.trainPos, cands, NewTruthOracle(c.pair))
	executors := []struct {
		name string
		tr   ShardTransport
	}{
		{"partitioned", nil},
		{"loopback", NewLoopbackTransport()},
		{"chaos", &distrib.ChaosTransport{Inner: distrib.Loopback{}, Opts: distrib.ChaosOptions{
			Seed: c.chaos, RefuseRate: 0.1, DropRate: 0.3, CorruptRate: 0.1, CrashRate: 0.1}}},
	}
	for _, ex := range executors {
		sa, err := newSharded(c.pair, opts, ex.tr)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle()
		res, err := sa.Align(c.trainPos, cands, o)
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		sharded[ex.name] = res
		checkInvariants(t, c, ex.name, opts, res, o)
		// One part asks the panel once per query; overlapping parts may
		// each ask a link they share.
		checkPanel(t, c, ex.name, opts, sa.Panel(), res.QueryCount(), ex.name == "partitioned" && opts.Partitions <= 1)
		sameSharded(t, ex.name, res, sharded["planThenAlign"])
		rounds, shards := max(opts.Rounds, 1), len(res.ShardWeights)
		if len(res.Reports) != rounds*shards {
			t.Errorf("%s: %d reports, want %d shards × %d rounds", ex.name, len(res.Reports), shards, rounds)
		}
		m := sa.Metrics()
		switch ex.name {
		case "partitioned":
			if m != nil {
				t.Errorf("in-process run reports a transport audit: %+v", m)
			}
		case "loopback":
			if m == nil || m.JobBytes <= 0 || m.ResultBytes <= 0 || m.Queries != res.QueryCount() || m.Retries != 0 || m.Fallbacks != 0 ||
				m.CacheHits != (rounds-1)*shards || m.CacheMisses != 0 || len(m.Shards) != rounds*shards {
				t.Errorf("loopback audit over %d shards × %d rounds: %+v", shards, rounds, m)
			}
		}
	}
	if opts.Partitions <= 1 && sharded["partitioned"].Rejected != 0 && !c.contradicting {
		t.Errorf("K=1 reconciliation rejected %d links", sharded["partitioned"].Rejected)
	}
	return sharded
}

// planThenAlign is the in-process arm as a strict chain: plan completely,
// then for every round fork, recount and train every part from scratch
// (partition.Align) on the round's budget and seed — what the executor
// does in overlapping steps, written with the same exported functions.
func planThenAlign(t *testing.T, pair *AlignedPair, opts Options, trainPos, candidates []Anchor, oracle Oracle) *PartitionedResult {
	t.Helper()
	train, err := opts.resolve()
	if err != nil {
		t.Fatal(err)
	}
	oracle, _, err = opts.wrapOracle(oracle)
	if err != nil {
		t.Fatal(err)
	}
	base, err := metadiag.NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	var planner *partition.Planner
	seeded, err := partition.SeedCached(base, &planner, trainPos, partition.Config{K: opts.Partitions})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := seeded.Assign(candidates, opts.Budget)
	if err != nil {
		t.Fatal(err)
	}
	rounds := max(opts.Rounds, 1)
	var res *PartitionedResult
	var reports []PartitionReport
	for r := 0; r < rounds; r++ {
		plan.Rebudget(partition.RoundBudget(opts.Budget, rounds, r))
		round := train
		round.Core.Seed = partition.RoundSeed(train.Core.Seed, r)
		if res, err = partition.Align(base, plan, round, oracle); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, res.Reports...)
		plan.AppendLabels(res.QueriedLabels())
	}
	res.Reports = reports
	return res
}

// alignOn trains testFixture's split under the truth oracle on one
// sharded executor, in process when tr is nil.
func alignOn(t *testing.T, opts Options, tr ShardTransport) (*shardedAligner, *PartitionedResult) {
	t.Helper()
	pair, trainPos, testPos, neg := testFixture(t)
	sa, err := newSharded(pair, opts, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sa.Align(trainPos, append(append([]Anchor{}, testPos...), neg...), NewTruthOracle(pair))
	if err != nil {
		t.Fatal(err)
	}
	return sa, res
}

// sameSharded asserts two sharded results are the same run: every merged
// vote, per-shard model, queried label and part report (Elapsed aside).
func sameSharded(t *testing.T, name string, got, want *PartitionedResult) {
	t.Helper()
	zeroed := func(reps []PartitionReport) []PartitionReport {
		out := append([]PartitionReport(nil), reps...)
		for i := range out {
			out[i].Elapsed = 0
		}
		return out
	}
	switch {
	case !reflect.DeepEqual(got.Entries(), want.Entries()):
		t.Errorf("%s: merged votes diverge", name)
	case !reflect.DeepEqual(got.ShardWeights, want.ShardWeights):
		t.Errorf("%s: shard weights diverge", name)
	case !reflect.DeepEqual(got.QueriedLabels(), want.QueriedLabels()):
		t.Errorf("%s: queried labels diverge", name)
	case !reflect.DeepEqual(zeroed(got.Reports), zeroed(want.Reports)) || got.QueryCount() != want.QueryCount():
		t.Errorf("%s: reports diverge:\n got  %+v\n want %+v", name, zeroed(got.Reports), zeroed(want.Reports))
	case got.Rejected != want.Rejected || !reflect.DeepEqual(got.PredictedAnchors(), want.PredictedAnchors()):
		t.Errorf("%s: reconciliation diverges", name)
	}
}

// checkInvariants asserts the paper's output guarantees on one result:
// one-to-one anchors, the budget, and no oracle answer overruled — a NO
// ends 0, and a fixed positive (training anchor or YES) ends 1 unless an
// earlier one in (I, J) order that kept its 1 shares an endpoint.
func checkInvariants(t *testing.T, c *chainCase, name string, opts Options, res *PartitionedResult, o *chainOracle) {
	t.Helper()
	seenI, seenJ := map[int]bool{}, map[int]bool{}
	for _, a := range res.PredictedAnchors() {
		if seenI[a.I] || seenJ[a.J] {
			t.Errorf("%s: predicted anchors break one-to-one at (%d,%d)", name, a.I, a.J)
		}
		seenI[a.I], seenJ[a.J] = true, true
	}
	if queries := res.QueryCount(); queries > opts.Budget || len(o.asked) > opts.Budget {
		t.Errorf("%s: %d queries, %d links asked of the oracle, over budget %d", name, queries, len(o.asked), opts.Budget)
	}
	fixed := append([]Anchor(nil), c.trainPos...)
	for _, q := range res.QueriedLabels() {
		if q.Label == 1 {
			fixed = append(fixed, q.Link)
		} else if l, ok := res.Label(q.Link.I, q.Link.J); !ok || l != 0 {
			t.Errorf("%s: oracle NO on (%d,%d) ends %v", name, q.Link.I, q.Link.J, l)
		}
	}
	sort.Slice(fixed, func(a, b int) bool {
		return fixed[a].I < fixed[b].I || (fixed[a].I == fixed[b].I && fixed[a].J < fixed[b].J)
	})
	keptI, keptJ := map[int]bool{}, map[int]bool{}
	for _, f := range fixed {
		want := 0.0
		if !keptI[f.I] && !keptJ[f.J] {
			want = 1
			keptI[f.I], keptJ[f.J] = true, true
		}
		if l, _ := res.Label(f.I, f.J); l != want {
			t.Errorf("%s: fixed positive (%d,%d) ends %v, want %v", name, f.I, f.J, l, want)
		}
	}
}

// checkPanel asserts what a configured panel's ledger may show: nothing
// without a panel, and under an honest one the queries it answered and no
// contradiction.
func checkPanel(t *testing.T, c *chainCase, name string, opts Options, p *OraclePanel, queries int, exact bool) {
	t.Helper()
	if (p == nil) != (opts.OracleConfig == nil) {
		t.Fatalf("%s: panel %v with OracleConfig %v", name, p, opts.OracleConfig)
	}
	if !c.honest || p == nil {
		return
	}
	if q := p.Queries(); q > queries || (exact && q != queries) || (opts.Budget > 0 && q == 0) {
		t.Errorf("%s: panel answered %d distinct queries, result spent %d", name, q, queries)
	}
	for _, tr := range p.TrustScores() {
		if tr.Distrusted || tr.Contradictions != 0 {
			t.Errorf("%s: honest labeler %s distrusted=%v contradictions=%d", name, tr.ID, tr.Distrusted, tr.Contradictions)
		}
	}
}

// snapshotOf freezes a result with its clock stamp pinned, round-trips it
// through a file, and checks the served index answers what the live
// result says.
func snapshotOf(t *testing.T, c *chainCase, facade string, res *PartitionedResult, opts Options) *Snapshot {
	t.Helper()
	snap, err := BuildSnapshot(facade, c.pair, res, opts)
	if err != nil {
		t.Fatalf("%s: %v", facade, err)
	}
	snap.Meta.CreatedUnix = 1
	path := filepath.Join(t.TempDir(), "a.snap")
	if err := WriteSnapshot(snap, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, snap) {
		t.Fatalf("%s: snapshot did not round-trip its file", facade)
	}
	ix, err := NewServeIndex(loaded)
	if err != nil {
		t.Fatal(err)
	}
	live, matches := res.Entries(), 0
	for _, e := range live {
		p, ok := ix.PoolScore(int32(e.Link.I), int32(e.Link.J))
		if !ok || p.Label != e.Label || p.Queried != e.Queried || p.HasScore != e.HasScore || (e.HasScore && p.Score != e.Score) {
			t.Fatalf("%s: index answers %+v for live %+v", facade, p, e)
		}
		if e.Label == 1 {
			matches++
			if m, ok := ix.MatchFor(1, int32(e.Link.I)); !ok || int(m.Index) != e.Link.J {
				t.Fatalf("%s: index matches user %d to %+v, live to %d", facade, e.Link.I, m, e.Link.J)
			}
		}
	}
	if _, _, n, pool := ix.Counts(); pool != len(live) || n != matches {
		t.Errorf("%s: index holds %d links and %d matches, live %d and %d", facade, pool, n, len(live), matches)
	}
	if EvaluateAlignment(ix, c.testPos, c.neg) != EvaluateAlignment(res, c.testPos, c.neg) {
		t.Errorf("%s: EvaluateAlignment differs between the served index and the live result", facade)
	}
	return loaded
}

func encode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	raw, _, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// encodeMasked encodes the artifact with its facade label blanked.
func encodeMasked(t *testing.T, s *Snapshot) []byte {
	m := *s
	m.Meta.Facade = ""
	return encode(t, &m)
}

// splitChecked splits the artifact, merges the shards back to the parent's
// bytes, and checks every shard carries the parent's net-2 side.
func splitChecked(t *testing.T, parent *Snapshot, ranges []snapshot.UserRange, parentBytes []byte) []*Snapshot {
	t.Helper()
	shards, err := snapshot.Split(parent, ranges)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := snapshot.Merge(shards)
	if err != nil {
		t.Fatalf("merge of split %v: %v", ranges, err)
	}
	if !bytes.Equal(encodeMasked(t, merged), parentBytes) {
		t.Errorf("split %v then merge does not give back the parent", ranges)
	}
	net2 := func(s *Snapshot) []snapshot.UserCandidates {
		var out []snapshot.UserCandidates
		for _, uc := range s.Cands {
			if uc.Net == 2 {
				out = append(out, uc)
			}
		}
		return out
	}
	for i, sh := range shards {
		if !reflect.DeepEqual(sh.Matches, parent.Matches) || !reflect.DeepEqual(net2(sh), net2(parent)) {
			t.Errorf("shard %d of %v does not carry the parent's net-2 side", i, ranges)
		}
	}
	return shards
}

// handlerOver is an alignd handler serving s; with a path, /v1/reload
// re-reads the artifact there.
func handlerOver(t *testing.T, s *Snapshot, path string) http.Handler {
	t.Helper()
	ix, err := NewServeIndex(s)
	if err != nil {
		t.Fatal(err)
	}
	st := &serve.Store{}
	st.Swap(ix)
	return serve.NewHandler(st, serve.NewMetrics(), serve.HandlerOptions{SnapshotPath: path})
}

// newFleet serves every shard from its own file behind a router and
// returns the router and the files, in shard order.
func newFleet(t *testing.T, shards []*Snapshot) (http.Handler, []string) {
	t.Helper()
	var urls, paths []string
	for i, sh := range shards {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("shard%d.snap", i))
		if err := sh.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(handlerOver(t, sh, path))
		t.Cleanup(srv.Close)
		urls, paths = append(urls, srv.URL), append(paths, path)
	}
	rt, err := fleet.NewRouter(urls, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Refresh()
	return rt, paths
}

type chainRequest struct{ method, path, body string }

// chainAnswer is what byte identity compares: status, Content-Type, body.
type chainAnswer struct {
	status      int
	contentType string
	body        string
}

// generationField matches the process-local reload counter, in a body's
// field and in an error message.
var generationField = regexp.MustCompile(`(generation"?:? ?)[0-9]+`)

func (a chainAnswer) masked() chainAnswer {
	a.body = generationField.ReplaceAllString(a.body, `${1}0`)
	return a
}

func (rq chainRequest) send(h http.Handler) chainAnswer {
	var body io.Reader
	if rq.body != "" {
		body = strings.NewReader(rq.body)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(rq.method, rq.path, body))
	return chainAnswer{w.Code, w.Header().Get("Content-Type"), w.Body.String()}
}

// chainRequests is the read mix: every user on both nets by token and
// index — match, candidates at several depths, resolve — the error
// shapes, and /v1/score over a quarter of the pool in the three body
// spellings alignd reads as a pool lookup, plus misses, rescores and
// malformed bodies.
func chainRequests(s *Snapshot, rng *rand.Rand) []chainRequest {
	var reqs []chainRequest
	get := func(format string, args ...any) {
		reqs = append(reqs, chainRequest{method: http.MethodGet, path: fmt.Sprintf(format, args...)})
	}
	post := func(format string, args ...any) {
		reqs = append(reqs, chainRequest{method: http.MethodPost, path: "/v1/score", body: fmt.Sprintf(format, args...)})
	}
	for i, u := range s.Meta.Users1 {
		get("/v1/match/1/%s", u)
		get("/v1/candidates/1/%d", i)
		get("/v1/candidates/1/%s?k=2", u)
		get("/v1/resolve/1/%s", u)
	}
	for j, u := range s.Meta.Users2 {
		get("/v1/match/2/%s", u)
		get("/v1/candidates/2/%d", j)
		get("/v1/candidates/2/%s?k=1", u)
		get("/v1/candidates/2/%s?k=100", u)
		get("/v1/resolve/2/%s", u)
	}
	get("/v1/match/1/ghost")
	get("/v1/match/2/ghost")
	get("/v1/match/9/%s", s.Meta.Users1[0])
	get("/v1/match/1")
	get("/v1/candidates/1/%s?k=-1", s.Meta.Users1[0])
	get("/v1/candidates/2/%s?k=abc", s.Meta.Users2[0])
	get("/v1/resolve/1/nope")
	for _, p := range s.Pool {
		if rng.Intn(4) == 0 {
			post(`{"i":%d,"j":%d}`, p.I, p.J)
			post(`{"i":%d,"j":%d,"features":null}`, p.I, p.J)
			post(`{"i":%d,"j":%d} trailing`, p.I, p.J)
		}
	}
	n1, n2 := len(s.Meta.Users1), len(s.Meta.Users2)
	post(`{"i":0,"j":%d}`, n2+5)
	post(`{"i":%d,"j":0}`, n1+5)
	post(`{"i":-3,"j":0}`)
	post(`{"features":[%s1]}`, strings.Repeat("0,", len(s.Meta.Notation)-1))
	post(`{"features":[1,0]}`)
	post(`{"i":1}`)
	post(`not json`)
	return reqs
}
