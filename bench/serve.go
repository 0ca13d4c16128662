package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	activeiter "github.com/activeiter/activeiter"
	"github.com/activeiter/activeiter/internal/serve"
	"github.com/activeiter/activeiter/internal/setsync"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// Latency limits the SLO-miss share is counted against: the p99 a
// read-only alignd and a churning two-shard fleet are expected to hold
// on loopback.
const (
	readLimit  = 2 * time.Millisecond
	churnLimit = 5 * time.Millisecond
)

// churnPeriod is how often fleet_churn's churn loop starts a
// sync-write-rollout cycle: often enough that a 6 s phase holds seven
// or eight reloads, rarely enough that reads dominate.
const churnPeriod = 800 * time.Millisecond

// ringSize is how many distinct seeded requests a serve workload
// cycles through — more than one open-loop phase sends, so the mix a
// phase sees is a plain uniform draw.
const ringSize = 1 << 14

// sampleEvery picks the responses compared byte for byte with the
// in-process reference: one in a hundred.
const sampleEvery = 100

// request is one pre-built HTTP request of the traffic mix.
type request struct {
	method string
	path   string
	body   []byte
	// fanout marks net-2 reads, which the router answers by merging
	// every shard: mid-rollout their bytes may mix two generations.
	fanout bool
	// wantStatus is the status the reference handler answers.
	wantStatus int
}

// serveFixture is the set-up product of a request→answer workload.
type serveFixture struct {
	name   string
	data   *dataset
	f1     float64
	client *http.Client
	base   string // URL requests are sent to (alignd, or alignr)
	ring   []request
	limit  time.Duration
	rate   float64

	parent     *snapshot.Snapshot // P, the artifact the fleet starts on
	refs       []*serve.Handler   // in-process monolithic references (P, then P′)
	parentPath string
	servers    []*serverProc // alignd replicas, then alignr
	echo       *serverProc   // the reference echo server (ref.go), started by measure

	// fleet_churn only.
	alt        *snapshot.Snapshot // P′
	fps        [2]uint64          // content fingerprints of P and P′
	ranges     []snapshot.UserRange
	shardPaths []string
	shardURLs  []string
	publisher  *publisher
}

func (fx *serveFixture) close() {
	if fx.publisher != nil {
		fx.publisher.close()
	}
	for _, p := range fx.servers {
		p.stop()
	}
	if fx.echo != nil {
		fx.echo.stop()
	}
	fx.client.CloseIdleConnections()
}

// publisher serves whichever artifact is current to setsync peers on a
// loopback listener — the fleet's artifact source during churn.
type publisher struct {
	ln     net.Listener
	target atomic.Pointer[snapshot.Snapshot]
	wg     sync.WaitGroup
}

func newPublisher(initial *snapshot.Snapshot) (*publisher, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &publisher{ln: ln}
	p.target.Store(initial)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			// A failed exchange is the puller's error to report; the
			// publisher keeps serving.
			_ = setsync.Serve(conn, p.target.Load(), setsync.Options{})
			conn.Close()
		}
	}()
	return p, nil
}

func (p *publisher) close() {
	p.ln.Close()
	p.wg.Wait()
}

func (p *publisher) dial() (net.Conn, error) {
	return net.DialTimeout("tcp", p.ln.Addr().String(), 5*time.Second)
}

// newRefHandler builds the in-process monolithic reference over snap —
// the answer every served byte is compared with.
func newRefHandler(snap *snapshot.Snapshot) (*serve.Handler, error) {
	ix, err := serve.NewIndex(snap)
	if err != nil {
		return nil, err
	}
	st := &serve.Store{}
	st.Swap(ix)
	return serve.NewHandler(st, nil, serve.HandlerOptions{DefaultK: snapshot.DefaultTopK}), nil
}

// trainArtifact trains the serving artifact the way mono_cold trains a
// model (fold 0, monolithic facade) and returns it with its F1 as
// scored through the serving index.
func trainArtifact(data *dataset, seed int64) (*snapshot.Snapshot, float64, error) {
	opts := trainOptions(seed)
	al, err := activeiter.New(data.pair, opts)
	if err != nil {
		return nil, 0, err
	}
	train, cands, testPos := data.fold(0)
	res, err := al.Align(train, cands, data.oracle)
	if err != nil {
		return nil, 0, err
	}
	snap, err := activeiter.BuildSnapshot(activeiter.SnapshotMonolithic, data.pair, res, opts)
	if err != nil {
		return nil, 0, err
	}
	ix, err := activeiter.NewServeIndex(snap)
	if err != nil {
		return nil, 0, err
	}
	return snap, activeiter.EvaluateAlignment(ix, testPos, data.negatives).F1, nil
}

// perturb returns P′: P with one pool link in a hundred rescored (an
// unmatched, unqueried link's score halved), rebuilt through
// snapshot.Build so candidate lists follow. Matches and labels are
// untouched, so P and P′ answer every request with the same status.
func perturb(p *snapshot.Snapshot, data *dataset, seed int64) (*snapshot.Snapshot, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pool := append([]snapshot.PoolLink(nil), p.Pool...)
	var eligible []int
	for i, l := range pool {
		if l.HasScore && l.Label == 0 && !l.Queried {
			eligible = append(eligible, i)
		}
	}
	n := max(len(pool)/100, 1)
	if len(eligible) < n {
		return nil, fmt.Errorf("only %d of %d pool links can be rescored", len(eligible), len(pool))
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	for _, i := range eligible[:n] {
		pool[i].Score *= 0.5
	}
	meta := p.Meta
	meta.Shard = nil
	return snapshot.Build(data.pair, meta, p.Model, pool,
		append([]snapshot.Match(nil), p.Matches...),
		append([]snapshot.QueriedLabel(nil), p.Labels...), p.TopK)
}

// setupServe generates the pair, trains and writes the artifact, builds
// the server binaries, starts the processes on ports the kernel picks
// and waits until they are ready.
func setupServe(ctx context.Context, e *env, name string) (*serveFixture, error) {
	data, err := newDataset(e.preset, e.opts.seed)
	if err != nil {
		return nil, err
	}
	fx := &serveFixture{name: name, data: data}
	conns := gomaxprocs()
	fx.client = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: 4 * conns, MaxIdleConnsPerHost: 2 * conns, DisableCompression: true,
		},
	}
	ok := false
	defer func() {
		if !ok {
			fx.close()
		}
	}()

	if fx.parent, fx.f1, err = trainArtifact(data, e.opts.seed); err != nil {
		return nil, fmt.Errorf("train the serving artifact: %w", err)
	}
	ref, err := newRefHandler(fx.parent)
	if err != nil {
		return nil, err
	}
	fx.refs = []*serve.Handler{ref}
	parentPath := filepath.Join(e.tmpDir, "parent.snap")
	if err := fx.parent.WriteFile(parentPath); err != nil {
		return nil, err
	}

	switch name {
	case "serve_read":
		bin, err := buildBinaries(ctx, e.root, "alignd")
		if err != nil {
			return nil, err
		}
		d, err := startServer(ctx, "serving on", filepath.Join(bin, "alignd"),
			"-snapshot", parentPath, "-listen", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		fx.servers = append(fx.servers, d)
		fx.base = "http://" + d.addr
		fx.limit, fx.rate = readLimit, e.preset.readRate
		fx.ring = readMix(data, fx.parent, e.opts.seed)
	case "fleet_churn":
		if err := fx.setupFleet(ctx, e); err != nil {
			return nil, err
		}
		fx.limit, fx.rate = churnLimit, e.preset.churnRate
		fx.ring = fleetMix(data, fx.parent, e.opts.seed)
	default:
		return nil, fmt.Errorf("unknown serve workload %q", name)
	}
	if err := waitReady(ctx, fx.client, fx.base+"/readyz"); err != nil {
		return nil, err
	}
	for i := range fx.ring {
		fx.ring[i].wantStatus, _ = reference(fx.refs[0], &fx.ring[i])
	}
	ok = true
	return fx, nil
}

// setupFleet builds P′, splits P over two user ranges, starts one
// alignd per shard and alignr in front, and opens the setsync
// publisher.
func (fx *serveFixture) setupFleet(ctx context.Context, e *env) error {
	var err error
	if fx.alt, err = perturb(fx.parent, fx.data, e.opts.seed); err != nil {
		return err
	}
	altRef, err := newRefHandler(fx.alt)
	if err != nil {
		return err
	}
	fx.refs = append(fx.refs, altRef)
	for i, s := range []*snapshot.Snapshot{fx.parent, fx.alt} {
		if fx.fps[i], err = s.Fingerprint(); err != nil {
			return err
		}
	}
	fx.ranges = snapshot.EvenRanges(len(fx.parent.Meta.Users1), fleetShards)
	shards, err := snapshot.Split(fx.parent, fx.ranges)
	if err != nil {
		return err
	}
	bin, err := buildBinaries(ctx, e.root, "alignd", "alignr")
	if err != nil {
		return err
	}
	var backends []string
	for i, sh := range shards {
		path := filepath.Join(e.tmpDir, fmt.Sprintf("shard%02d.snap", i))
		if err := sh.WriteFile(path); err != nil {
			return err
		}
		fx.shardPaths = append(fx.shardPaths, path)
		d, err := startServer(ctx, "serving on", filepath.Join(bin, "alignd"),
			"-snapshot", path, "-listen", "127.0.0.1:0")
		if err != nil {
			return err
		}
		fx.servers = append(fx.servers, d)
		fx.shardURLs = append(fx.shardURLs, "http://"+d.addr)
		if err := waitReady(ctx, fx.client, "http://"+d.addr+"/readyz"); err != nil {
			return err
		}
		backends = append(backends, d.addr)
	}
	r, err := startServer(ctx, "routing", filepath.Join(bin, "alignr"),
		"-backends", strings.Join(backends, ","), "-listen", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fx.servers = append(fx.servers, r)
	fx.base = "http://" + r.addr
	fx.publisher, err = newPublisher(fx.alt)
	return err
}

// userToken names user idx of net by index or by external ID, half
// each.
func userToken(data *dataset, net, idx int, byID bool) string {
	if !byID {
		return strconv.Itoa(idx)
	}
	g := data.pair.G1
	if net == 2 {
		g = data.pair.G2
	}
	return g.NodeID(activeiter.User, idx)
}

// mixBuilder draws the seeded request ring of one workload.
type mixBuilder struct {
	data *dataset
	snap *snapshot.Snapshot
	rng  *rand.Rand
}

func (m *mixBuilder) user(net int) string {
	n := len(m.snap.Meta.Users1)
	if net == 2 {
		n = len(m.snap.Meta.Users2)
	}
	return userToken(m.data, net, m.rng.Intn(n), m.rng.Intn(2) == 0)
}

func (m *mixBuilder) match(net int) request {
	return request{method: http.MethodGet, path: fmt.Sprintf("/v1/match/%d/%s", net, m.user(net)), fanout: net == 2}
}

func (m *mixBuilder) candidates(net int) request {
	return request{method: http.MethodGet, path: fmt.Sprintf("/v1/candidates/%d/%s?k=5", net, m.user(net)), fanout: net == 2}
}

func (m *mixBuilder) score() request {
	l := m.snap.Pool[m.rng.Intn(len(m.snap.Pool))]
	return request{method: http.MethodPost, path: "/v1/score", body: []byte(fmt.Sprintf(`{"i":%d,"j":%d}`, l.I, l.J))}
}

// readMix is serve_read's traffic: 70% match, 20% candidates (k=5),
// 10% pool-link score, all net 1, users uniform.
func readMix(data *dataset, snap *snapshot.Snapshot, seed int64) []request {
	m := &mixBuilder{data: data, snap: snap, rng: rand.New(rand.NewSource(seed ^ 0x7ead))}
	ring := make([]request, ringSize)
	for i := range ring {
		switch p := m.rng.Intn(10); {
		case p < 7:
			ring[i] = m.match(1)
		case p < 9:
			ring[i] = m.candidates(1)
		default:
			ring[i] = m.score()
		}
	}
	return ring
}

// fleetMix is fleet_churn's traffic: 50% net-1 match (owner-routed),
// 30% net-2 candidates (fan-out and merge), 10% net-2 match (fan-out),
// 10% score.
func fleetMix(data *dataset, snap *snapshot.Snapshot, seed int64) []request {
	m := &mixBuilder{data: data, snap: snap, rng: rand.New(rand.NewSource(seed ^ 0xf1ee7))}
	ring := make([]request, ringSize)
	for i := range ring {
		switch p := m.rng.Intn(10); {
		case p < 5:
			ring[i] = m.match(1)
		case p < 8:
			ring[i] = m.candidates(2)
		case p < 9:
			ring[i] = m.match(2)
		default:
			ring[i] = m.score()
		}
	}
	return ring
}

var generationRE = regexp.MustCompile(`generation(":| )\d+`)

// maskGeneration blanks the process-local reload counter, the one
// field a served body may differ in from the reference.
func maskGeneration(b []byte) []byte {
	return generationRE.ReplaceAll(b, []byte("generation${1}0"))
}

// reference answers r in process.
func reference(h *serve.Handler, r *request) (int, []byte) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, body))
	return rec.Code, maskGeneration(rec.Body.Bytes())
}

// do sends r to base and returns the status and body.
func do(client *http.Client, base string, r *request) (int, []byte, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// loadResult is what one load phase observed.
type loadResult struct {
	seconds   float64
	latS      []float64 // per completed request; open loop: from due time
	lateS     []float64 // open loop: send start minus due time
	refS      []float64 // paired closed loop: the reference round trip after each request
	attempted int
	failed    int
	overLimit int
	samples   []sampled
}

// sampled is one response kept for the byte-for-byte comparison.
type sampled struct {
	req    *request
	status int
	body   []byte
}

// loadgen drives one phase. rate > 0 is an open loop: request k is due
// at start + k/rate whatever the server does, its latency runs from
// that due time, and how late it was really sent is recorded. rate == 0
// is a closed loop: each of conns clients sends its next request when
// the previous one completes. A closed loop given a refBase is paired:
// every request is followed by one reference round trip to refBase on
// the same client, timed on its own.
func (fx *serveFixture) loadgen(ctx context.Context, dur time.Duration, rate float64, conns int, base, refBase string, ring []request) loadResult {
	type slot struct {
		lat, late float64
		ref       float64
		status    int
		err       bool
		body      []byte
		req       *request
	}
	open := rate > 0
	start := time.Now().Add(2 * time.Millisecond)
	deadline := start.Add(dur)
	dueOf := func(k int) time.Time {
		return start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
	}

	// The open loop's schedule is kept by one pacer that hands request
	// numbers to the senders through a queue deep enough never to block
	// it: a stalled server delays the senders, not the schedule. The
	// closed loop has no schedule; senders draw numbers themselves.
	var queue chan int
	var pacer sync.WaitGroup
	if open {
		total := int(rate * dur.Seconds())
		queue = make(chan int, total) // the whole phase fits: the pacer never waits for a sender
		pacer.Add(1)
		go func() {
			defer pacer.Done()
			defer close(queue)
			for k := 0; k < total && ctx.Err() == nil; k++ {
				sleepUntil(dueOf(k))
				queue <- k
			}
		}()
	}
	var next atomic.Int64
	draw := func() (int, bool) {
		if open {
			k, ok := <-queue
			return k, ok
		}
		return int(next.Add(1) - 1), time.Now().Before(deadline)
	}

	perConn := make([][]slot, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var out []slot
			for ctx.Err() == nil {
				k, ok := draw()
				if !ok {
					break
				}
				r := &ring[k%len(ring)]
				sent := time.Now()
				due := sent
				if open {
					due = dueOf(k)
				}
				status, body, err := do(fx.client, base, r)
				s := slot{lat: time.Since(due).Seconds(), late: sent.Sub(due).Seconds(), status: status, err: err != nil, req: r}
				if k%sampleEvery == 0 {
					s.body = body
				}
				if refBase != "" {
					t := time.Now()
					status, _, err := do(fx.client, refBase, &echoRequest)
					s.ref = time.Since(t).Seconds()
					// A failed reference voids the pair it belongs to.
					s.err = s.err || err != nil || status != echoRequest.wantStatus
				}
				out = append(out, s)
			}
			perConn[c] = out
		}(c)
	}
	wg.Wait()
	pacer.Wait()
	res := loadResult{seconds: time.Since(start).Seconds()}
	for _, out := range perConn {
		for _, s := range out {
			res.attempted++
			bad := s.err || s.status != s.req.wantStatus
			if bad {
				res.failed++
			}
			if bad || s.lat > fx.limit.Seconds() {
				res.overLimit++
			}
			res.latS = append(res.latS, s.lat)
			res.lateS = append(res.lateS, s.late)
			if refBase != "" {
				res.refS = append(res.refS, s.ref)
			}
			if s.body != nil && !s.err {
				res.samples = append(res.samples, sampled{req: s.req, status: s.status, body: s.body})
			}
		}
	}
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// runtime's own timers wake an idle process through epoll, whose
// timeout is whole milliseconds — a schedule of a few requests per
// millisecond kept with time.Sleep runs half a millisecond late on
// average, several times the latency being measured. nanosleep is
// accurate to the kernel's 50 µs timer slack and burns no CPU.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
}

// verify compares the sampled responses with the in-process
// references. A body must equal the answer of one reference
// generation; mixed marks a phase during which the fleet may hold two
// generations at once, where a fan-out read is allowed to merge both
// and only its status is checked.
func (fx *serveFixture) verify(phase string, res *loadResult, mixed bool, d *runDetail) {
	for _, s := range res.samples {
		if mixed && s.req.fanout {
			continue
		}
		got := maskGeneration(s.body)
		match := false
		for _, ref := range fx.refs {
			if status, want := reference(ref, s.req); status == s.status && bytes.Equal(want, got) {
				match = true
				break
			}
		}
		if !match {
			res.failed++
			d.violate("%s: %s %s answered %d %q, which no reference generation gives", phase, s.req.method, s.req.path, s.status, truncate(got, 120))
		}
	}
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}

// report turns a load phase into its phaseReport.
func (res *loadResult) report(name string, open bool) phaseReport {
	p := phaseReport{Name: name, Seconds: res.seconds, Attempted: res.attempted,
		Succeeded: res.attempted - res.failed, Failed: res.failed}
	if open && len(res.lateS) > 0 {
		p.LateP50us = median(res.lateS) * 1e6
		p.LateP99us = percentile(res.lateS, 99) * 1e6
		p.LateMaxus = percentile(res.lateS, 100) * 1e6
	}
	return p
}

// churnStats is what the churn goroutine measured.
type churnStats struct {
	syncMS, reloadMS, splitWriteS []float64
	wireFrac                      []float64
	tx, rx, level, fallbacks      float64
	cycles, failed                int
}

// churn flips the fleet between P and P′ every period until ctx ends:
// pull the other artifact from the publisher by delta sync, verify its
// fingerprint, split and write the shard files in place, then roll the
// fleet through alignr.
func (fx *serveFixture) churn(ctx context.Context, period time.Duration, d *runDetail) churnStats {
	var st churnStats
	have, cur := fx.parent, 0
	tick := time.NewTicker(period)
	defer tick.Stop()
	for first := true; ; first = false {
		if !first { // the first cycle starts with the phase, so the shortest run holds one
			select {
			case <-ctx.Done():
				return st
			case <-tick.C:
			}
		}
		st.cycles++
		want := 1 - cur
		fx.publisher.target.Store([]*snapshot.Snapshot{fx.parent, fx.alt}[want])

		t0 := time.Now()
		snap, stats, err := setsync.Pull(fx.publisher.dial, have, setsync.Options{Timeout: 5 * time.Second})
		syncS := time.Since(t0).Seconds()
		if err != nil {
			st.failed++
			d.violate("churn cycle %d: setsync pull: %v", st.cycles, err)
			continue
		}
		if stats.TargetFP != fx.fps[want] {
			st.failed++
			d.violate("churn cycle %d: pulled fingerprint %016x, publisher serves %016x", st.cycles, stats.TargetFP, fx.fps[want])
			continue
		}
		st.syncMS = append(st.syncMS, syncS*1e3)
		st.wireFrac = append(st.wireFrac, float64(stats.WireBytes())/float64(max(stats.FullBytes, 1)))
		st.tx, st.rx = float64(stats.TxBytes), float64(stats.RxBytes)
		st.level = float64(stats.Attempts)
		if stats.Mode != "delta" {
			st.fallbacks++
		}

		t1 := time.Now()
		shards, err := snapshot.Split(snap, fx.ranges)
		if err == nil {
			for i, sh := range shards {
				if err = sh.WriteFile(fx.shardPaths[i]); err != nil {
					break
				}
			}
		}
		if err != nil {
			st.failed++
			d.violate("churn cycle %d: split and write: %v", st.cycles, err)
			continue
		}
		st.splitWriteS = append(st.splitWriteS, time.Since(t1).Seconds())

		t2 := time.Now()
		status, body, err := do(fx.client, fx.base, &request{method: http.MethodPost, path: "/v1/rollout", body: []byte("{}")})
		var rolled struct {
			Reloaded []string `json:"reloaded"`
		}
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &rolled)
		}
		if err != nil || status != http.StatusOK || len(rolled.Reloaded) != fleetShards {
			st.failed++
			d.violate("churn cycle %d: rollout answered %d %q (%v)", st.cycles, status, truncate(body, 120), err)
			continue
		}
		st.reloadMS = append(st.reloadMS, time.Since(t2).Seconds()*1e3)
		have, cur = snap, want
	}
}

// measure runs the workload's phases — warm-up, open loop (with churn
// beside it on fleet_churn), closed loop, paired closed loop — on cores
// kept from halting (idle.go) and fills the end-to-end metrics.
func (fx *serveFixture) measure(ctx context.Context, e *env, d *runDetail) error {
	total := e.measureFor()
	conns := gomaxprocs()
	churning := fx.name == "fleet_churn"
	openShare, closedShare, pairedShare, openConns := 0.45, 0.2, 0.25, conns
	if churning {
		// Writes beside reads need the longer phase: every reload is one
		// sample of reload_p50_ms. One reader keeps a core for the churn.
		openShare, closedShare, pairedShare, openConns = 0.55, 0.15, 0.2, 1
	}
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	var err error
	if fx.echo, err = startEcho(ctx); err != nil {
		return err
	}
	refBase := "http://" + fx.echo.addr
	spinners, err := startIdleSpinners()
	if err != nil {
		return err
	}
	defer spinners.stop()

	warm := fx.loadgen(ctx, total/10, 0, conns, fx.base, refBase, fx.ring)
	fx.verify("warm-up", &warm, false, d)
	d.addPhase(warm.report("warm-up", false))

	cpu0 := fx.cpuSeconds()
	var cs churnStats
	churnDone := make(chan struct{})
	churnCtx, stopChurn := context.WithCancel(ctx)
	if churning {
		go func() {
			defer close(churnDone)
			cs = fx.churn(churnCtx, churnPeriod, d)
		}()
	} else {
		close(churnDone)
	}
	open := fx.loadgen(ctx, share(openShare), fx.rate, openConns, fx.base, "", fx.ring)
	stopChurn()
	<-churnDone
	cpuOpen := fx.cpuSeconds() - cpu0
	fx.verify("open loop", &open, churning, d)
	d.addPhase(open.report("open loop", true))
	if churning {
		d.addPhase(phaseReport{Name: "churn", Seconds: open.seconds, Attempted: cs.cycles,
			Succeeded: cs.cycles - cs.failed, Failed: cs.failed})
	}

	closed := fx.loadgen(ctx, share(closedShare), 0, conns, fx.base, "", fx.ring)
	fx.verify("closed loop", &closed, false, d)
	d.addPhase(closed.report("closed loop", false))

	// One client: a request and its reference round trip have the cores
	// to themselves, so their ratio is the path's cost and not the
	// scheduler's.
	paired := fx.loadgen(ctx, share(pairedShare), 0, 1, fx.base, refBase, fx.ring)
	fx.verify("paired loop", &paired, false, d)
	d.addPhase(paired.report("paired loop", false))
	d.Extra.set("bench.idle_spinners", float64(spinners.stop()), "count")
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(open.latS) == 0 || len(closed.latS) == 0 || len(paired.latS) == 0 {
		return fmt.Errorf("%s: a load phase completed no request", fx.name)
	}

	d.EndToEnd.set("op_p50_vs_ref", medianRatio(paired.latS, paired.refS), "ratio")
	d.EndToEnd.set("f1", fx.f1, "ratio")
	rss := 0.0
	for _, p := range fx.servers {
		rss += peakRSSMB(p.cmd.Process.Pid)
	}
	d.EndToEnd.set("peak_rss_mb", rss, "MB")

	d.Extra.set("bench.ref_op_ms", median(paired.refS)*1e3, "ms")
	d.Extra.set("req_paired_p50_us", median(paired.latS)*1e6, "us")
	d.Extra.set("req_p50_us", median(open.latS)*1e6, "us")
	d.Extra.set("serve.cpu_us_per_req", cpuOpen/float64(open.attempted)*1e6, "us")
	d.Extra.set("req_p90_us", percentile(open.latS, 90)*1e6, "us")
	d.Extra.set("req_p99_us", percentile(open.latS, 99)*1e6, "us")
	d.Extra.set("slo_miss_ratio", float64(open.overLimit)/float64(open.attempted), "ratio")
	d.Extra.set("req_per_s", float64(closed.attempted-closed.failed)/closed.seconds, "1/s")
	d.Extra.set("fail_ratio", float64(d.Failed)/float64(max(d.Attempted, 1)), "ratio")
	d.Extra.set("serve.closed_p50_us", median(closed.latS)*1e6, "us")
	if churning {
		if len(cs.reloadMS) == 0 {
			return fmt.Errorf("fleet_churn: no churn cycle completed in %.1fs", open.seconds)
		}
		d.Extra.set("reload_p50_ms", median(cs.reloadMS), "ms")
		d.Extra.set("sync_p50_ms", median(cs.syncMS), "ms")
		d.Extra.set("sync_wire_frac", median(cs.wireFrac), "ratio")
		d.Extra.set("setsync.tx_bytes", cs.tx, "B")
		d.Extra.set("setsync.rx_bytes", cs.rx, "B")
		d.Extra.set("setsync.level", cs.level, "count")
		d.Extra.set("setsync.fallbacks", cs.fallbacks, "count")
		d.Extra.set("setsync.pull_s", median(cs.syncMS)/1e3, "s")
		d.Extra.set("fleet.rollout_s", median(cs.reloadMS)/1e3, "s")
		d.Extra.set("bench.churn_split_write_s", median(cs.splitWriteS), "s")
	}
	return nil
}

// cpuSeconds is the CPU consumed so far by the load generator (this
// process) and every server process.
func (fx *serveFixture) cpuSeconds() float64 {
	total := cpuSelfAndReaped()
	for _, p := range fx.servers {
		total += cpuOfPid(p.cmd.Process.Pid)
	}
	return total
}
