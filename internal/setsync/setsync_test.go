package setsync

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture builds a deterministic artifact big enough that 1% churn is
// a real diff: n1 users per net, 6 pool links per user.
type fixture struct {
	pair    *hetnet.AlignedPair
	meta    snapshot.Meta
	model   snapshot.Model
	pool    []snapshot.PoolLink
	matches []snapshot.Match
	labels  []snapshot.QueriedLabel
}

func newFixture(t testing.TB, seed int64, n int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	build := func(name string) *hetnet.Network {
		g := hetnet.NewSocialNetwork(name)
		for u := 0; u < n; u++ {
			g.AddNode(hetnet.User, fmt.Sprintf("%s-u%d", name, u))
		}
		return g
	}
	f := &fixture{
		pair: hetnet.NewAlignedPair(build("src"), build("dst")),
		meta: snapshot.Meta{
			CreatedUnix: 1700000000,
			Facade:      "partitioned",
			Notation:    []string{"U→U", "U→P→U", "bias"},
			Threshold:   0.5,
			Seed:        seed,
		},
		model: snapshot.Model{Shards: []snapshot.ShardModel{{Shard: 0, W: []float64{0.5, -0.25, 0.125}}}},
	}
	seen := map[[2]int32]bool{}
	for len(f.pool) < n*6 {
		i, j := int32(rng.Intn(n)), int32(rng.Intn(n))
		if seen[[2]int32{i, j}] {
			continue
		}
		seen[[2]int32{i, j}] = true
		f.pool = append(f.pool, snapshot.PoolLink{
			I: i, J: j,
			Label:    float64(rng.Intn(2)),
			Score:    float64(rng.Intn(1000)) / 1000,
			HasScore: true,
			Queried:  rng.Intn(5) == 0,
		})
	}
	for i := 0; i < n; i += 2 {
		f.matches = append(f.matches, snapshot.Match{I: int32(i), J: int32(i), Score: 0.9, HasScore: true})
	}
	f.labels = []snapshot.QueriedLabel{{I: 0, J: 0, Label: 1}}
	return f
}

func (f *fixture) snapshot(t testing.TB) *snapshot.Snapshot {
	t.Helper()
	s, err := snapshot.Build(f.pair, f.meta, f.model, f.pool, f.matches, f.labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// churn rebuilds the artifact with frac of the pool link scores
// changed — the "small drift between fleet generations" shape.
func (f *fixture) churn(t testing.TB, frac float64) *snapshot.Snapshot {
	t.Helper()
	changed := int(float64(len(f.pool)) * frac)
	if changed < 1 {
		changed = 1
	}
	pool := append([]snapshot.PoolLink(nil), f.pool...)
	for i := 0; i < changed; i++ {
		pool[i*len(pool)/changed].Score += 0.001
	}
	s, err := snapshot.Build(f.pair, f.meta, f.model, pool, f.matches, f.labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustBytes(t testing.TB, s *snapshot.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecomposeReassembleRoundTrip(t *testing.T) {
	s := newFixture(t, 1, 40).snapshot(t)
	entries, err := Decompose(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3+len(s.Matches)+len(s.Cands)+len(s.Pool)+len(s.Labels) {
		t.Fatalf("%d entries for the section sizes at hand", len(entries))
	}
	// Shuffle to prove reassembly does not depend on entry order.
	rng := rand.New(rand.NewSource(2))
	rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
	got, err := Reassemble(entries)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustBytes(t, got), mustBytes(t, s)) {
		t.Error("reassembled artifact serializes differently from the original")
	}
}

func TestDecomposeDeterministic(t *testing.T) {
	a, err := Decompose(newFixture(t, 3, 30).snapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(newFixture(t, 3, 30).snapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	fps := func(es []Entry) map[uint64]bool {
		m := map[uint64]bool{}
		for _, e := range es {
			m[e.FP] = true
		}
		return m
	}
	fa, fb := fps(a), fps(b)
	if len(fa) != len(fb) {
		t.Fatalf("fingerprint set sizes differ: %d vs %d", len(fa), len(fb))
	}
	for fp := range fa {
		if !fb[fp] {
			t.Fatalf("fingerprint %016x only on one side for equal snapshots", fp)
		}
	}
}

// TestEntryFingerprintsGolden pins the fixture's (kind, fingerprint)
// list against a file another process wrote: two replicas must derive
// one fingerprint set from equal artifacts or every sync degrades to a
// full transfer. Regenerate with -update only after a deliberate change
// to a record layout in internal/snapshot (a sync codec version bump).
func TestEntryFingerprintsGolden(t *testing.T) {
	entries, err := Decompose(newFixture(t, 1, 40).snapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&got, "%d %016x\n", e.Kind, e.FP)
	}
	path := filepath.Join("testdata", "entries.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("entry fingerprints moved — a record layout changed without a sync version bump:\n got %s\nwant %s", got.String(), want)
	}
}

func TestReassembleRejectsBrokenSets(t *testing.T) {
	s := newFixture(t, 4, 20).snapshot(t)
	entries, err := Decompose(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reassemble(entries[1:]); err == nil {
		t.Error("entry set missing its meta head reassembled")
	}
	dup := append(append([]Entry(nil), entries...), entries[0])
	if _, err := Reassemble(dup); err == nil {
		t.Error("entry set with two meta heads reassembled")
	}
	bad := append([]Entry(nil), entries...)
	bad[0] = Entry{Kind: 99, Body: []byte{1}, FP: 7}
	if _, err := Reassemble(bad); err == nil {
		t.Error("unknown entry kind reassembled")
	}
}

func TestIBLTSubtractDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	common := make([]uint64, 5000)
	for i := range common {
		common[i] = rng.Uint64() | 1
	}
	aOnly := []uint64{rng.Uint64() | 1, rng.Uint64() | 1, rng.Uint64() | 1}
	bOnly := []uint64{rng.Uint64() | 1, rng.Uint64() | 1}

	a := NewTable(128, numHashes, 42)
	b := NewTable(128, numHashes, 42)
	for _, fp := range common {
		a.Insert(fp)
		b.Insert(fp)
	}
	for _, fp := range aOnly {
		a.Insert(fp)
	}
	for _, fp := range bOnly {
		b.Insert(fp)
	}
	diff, err := a.Subtract(b)
	if err != nil {
		t.Fatal(err)
	}
	plus, minus, ok := diff.Decode()
	if !ok {
		t.Fatal("5-key difference did not peel out of 128 cells")
	}
	if len(plus) != len(aOnly) || len(minus) != len(bOnly) {
		t.Fatalf("decoded %d+/%d−, want %d+/%d−", len(plus), len(minus), len(aOnly), len(bOnly))
	}
	if _, err := a.Subtract(NewTable(64, numHashes, 42)); err == nil {
		t.Error("mismatched-geometry subtraction accepted")
	}
	// Round-trip the wire encoding.
	back, err := decodeTable(a.appendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(a.Cells) || back.Seed != a.Seed || back.K != a.K {
		t.Error("table wire round trip lost geometry")
	}
}

// serveDialer runs Serve over an in-memory pipe per dial.
func serveDialer(t testing.TB, target *snapshot.Snapshot, opts Options) Dialer {
	t.Helper()
	return func() (net.Conn, error) {
		c1, c2 := net.Pipe()
		go func() {
			defer c2.Close()
			Serve(c2, target, opts)
		}()
		return c1, nil
	}
}

func TestPullNoChange(t *testing.T) {
	s := newFixture(t, 6, 40).snapshot(t)
	got, stats, err := Pull(serveDialer(t, s, Options{}), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "none" || got != s {
		t.Errorf("mode %q (stats %+v)", stats.Mode, stats)
	}
	if stats.WireBytes() > 200 {
		t.Errorf("no-change sync moved %d wire bytes", stats.WireBytes())
	}
}

// TestPullDeltaSmallChurn is the acceptance property: at 1% churn the
// reconciliation traffic stays under 10% of the full artifact.
func TestPullDeltaSmallChurn(t *testing.T) {
	f := newFixture(t, 7, 400)
	stale := f.snapshot(t)
	target := f.churn(t, 0.01)
	got, stats, err := Pull(serveDialer(t, target, Options{}), stale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "delta" {
		t.Fatalf("mode %q, fallback %q", stats.Mode, stats.Fallback)
	}
	if !bytes.Equal(mustBytes(t, got), mustBytes(t, target)) {
		t.Error("delta sync produced a different artifact")
	}
	if stats.Added == 0 || stats.Removed == 0 {
		t.Errorf("stats %+v counted no patched entries", stats)
	}
	if 10*stats.WireBytes() >= stats.FullBytes {
		t.Errorf("delta moved %d wire bytes against a %d-byte artifact (≥10%%)", stats.WireBytes(), stats.FullBytes)
	}
}

func TestPullFullWhenNoLocalSnapshot(t *testing.T) {
	target := newFixture(t, 8, 40).snapshot(t)
	got, stats, err := Pull(serveDialer(t, target, Options{}), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "full" || stats.Fallback != "no local snapshot" {
		t.Errorf("stats %+v", stats)
	}
	if !bytes.Equal(mustBytes(t, got), mustBytes(t, target)) {
		t.Error("full sync produced a different artifact")
	}
}

// A diff near the size of the artifact must cut over to the full
// transfer instead of shipping the artifact piecewise as a patch.
func TestPullLargeDiffCutsOverToFull(t *testing.T) {
	stale := newFixture(t, 9, 60).snapshot(t)
	target := newFixture(t, 10, 60).snapshot(t) // unrelated content
	got, stats, err := Pull(serveDialer(t, target, Options{}), stale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "full" {
		t.Errorf("mode %q for a ~100%% diff", stats.Mode)
	}
	if !bytes.Equal(mustBytes(t, got), mustBytes(t, target)) {
		t.Error("cutover sync produced a different artifact")
	}
}

// corruptConn flips one byte of server→client traffic, simulating
// in-flight corruption. The CRC trailer must catch it and the client
// must converge by falling back to a full pull on a fresh connection.
type corruptConn struct {
	net.Conn
	seen int
}

func (c *corruptConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for i := 0; i < n; i++ {
		c.seen++
		if c.seen == 11 {
			p[i] ^= 0x20
		}
	}
	return n, err
}

func TestPullCorruptFrameFallsBackToFull(t *testing.T) {
	f := newFixture(t, 11, 80)
	stale := f.snapshot(t)
	target := f.churn(t, 0.01)
	clean := serveDialer(t, target, Options{})
	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		conn, err := clean()
		if dials == 1 {
			return &corruptConn{Conn: conn}, err
		}
		return conn, err
	}
	got, stats, err := Pull(dial, stale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "full" || stats.Fallback == "" {
		t.Errorf("stats %+v after injected corruption", stats)
	}
	if dials != 2 {
		t.Errorf("fallback reused the poisoned connection (%d dials)", dials)
	}
	if !bytes.Equal(mustBytes(t, got), mustBytes(t, target)) {
		t.Error("post-corruption sync produced a different artifact")
	}
}

func TestServeRejectsGarbage(t *testing.T) {
	s := newFixture(t, 12, 20).snapshot(t)
	c1, c2 := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- Serve(c2, s, Options{}) }()
	// Write from a goroutine: net.Pipe writes block until read, and the
	// server stops reading the moment the length prefix is hostile.
	go func() {
		c1.Write([]byte("definitely not a framed hello, padded until the reader gives up"))
		c1.Close()
	}()
	if err := <-done; err == nil {
		t.Error("garbage hello accepted")
	}
}

// A hello a version-1 peer wrote (gob meta and model entries behind it)
// is refused at the first frame with the sentinel, not after a
// reassembly that could never match.
func TestServeRefusesV1Hello(t *testing.T) {
	s := newFixture(t, 12, 20).snapshot(t)
	v1 := codec
	v1.Version = 1
	var hello bytes.Buffer
	if err := v1.WriteFrame(&hello, tHello, append([]byte{1}, make([]byte, 9)...)); err != nil {
		t.Fatal(err)
	}
	err := Serve(&hello, s, Options{})
	if want := fmt.Sprintf("got 1, want %d", codec.Version); !errors.Is(err, ErrVersionMismatch) || !strings.Contains(err.Error(), want) {
		t.Errorf("v1 hello: got %v, want ErrVersionMismatch naming %s", err, want)
	}
}

func TestPullDialFailure(t *testing.T) {
	dial := func() (net.Conn, error) { return nil, fmt.Errorf("refused") }
	_, stats, err := Pull(dial, nil, Options{})
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Errorf("err %v stats %+v", err, stats)
	}
}

// growTarget must never ask a client to grow to a size it already has:
// once the ladder hits maxCells, replying Grow would only re-buy an
// identically sized (~14 MiB) sketch each round until the attempt
// budget ran out, so the ladder reports exhaustion (0) instead.
func TestGrowTargetExhaustsAtMaxCells(t *testing.T) {
	cases := []struct{ clientCells, want int }{
		{0, 128},
		{127, 128},
		{128, 256},
		{129, 256},
		{maxCells/2 - 1, maxCells / 2},
		{maxCells / 2, maxCells},
		{maxCells - 1, maxCells},
		{maxCells, 0},     // plateau: no strictly larger level exists
		{maxCells + 7, 0}, // defensive: hostile table sizes decode-reject earlier
	}
	for _, c := range cases {
		if got := growTarget(c.clientCells); got != c.want {
			t.Errorf("growTarget(%d) = %d, want %d", c.clientCells, got, c.want)
		}
	}
	for _, c := range cases {
		if c.want != 0 && c.want <= c.clientCells {
			t.Errorf("growTarget(%d) = %d does not strictly grow", c.clientCells, c.want)
		}
	}
}
