package distrib

import (
	"fmt"
	"io"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/retry"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// Session is the shard dispatcher: it runs rounds of distributed
// alignment over a stable shard plan — one round for a single-shot run
// (Coordinator.Run), one per retrain for an active loop — with sticky
// shard routing. Connections stay open across rounds and every round
// ships each shard its full Job, routed back to the worker connection
// that ran it last; a worker that still holds that shard prepared for an
// equal pool and configuration re-runs only training. The seed is built
// once per session and installed once per worker process, and counting
// and feature extraction are paid once per shard on the worker.
//
// Every round rides one recovery ladder: a worker that no longer holds
// the shard warm (restarted process, evicted cache entry, drifted pool)
// prepares it cold; a failed attempt burns its connection and the shard
// requeues — with backoff, for whichever slot is free — until it has
// had Options.Retry's Attempts; a shard out of attempts runs in-process
// over a private loopback worker; a straggler is waited for, or cut off
// by the policy's Timeout and retried. A shard has at most one attempt in
// flight, so each connection has one writer: its attempt's goroutine.
// Whichever rung answers, the votes are identical — warm re-runs are
// property-tested bit-equal to cold ones, and faulted runs to healthy
// ones.
//
// Use one Session per (pair, plan) lifetime: Run may be called once per
// active-learning round, with the caller growing the plan's prelabels
// (Plan.AppendLabels) and re-splitting the budget (Plan.Rebudget)
// between rounds. Close releases the worker connections. A Session is
// not safe for concurrent Run calls.
type Session struct {
	transport Transport
	opts      Options // Retry resolved
	pair      *hetnet.AlignedPair

	round int
	slots []*sessionSlot
	// homes maps a part index to the slot that ran it last, where the
	// next round sends it. mu guards it — the round's slots run side by
	// side.
	mu    sync.Mutex
	homes map[int]int
	cum   Metrics

	// seedFP/seedBody are built once (ensureSeed); every connection's
	// Hello offers the same seed, again after a redial. seedBase is the
	// counter that build pre-installed in this process's seed cache.
	// seedErr is the build's failure: no job can ship without a seed, so
	// it is every Run's error.
	seedOnce sync.Once
	seedFP   uint64
	seedBody []byte
	seedBase *metadiag.Counter
	seedErr  error
	// seedBytes/seedShips audit the seed ships no round has reported
	// yet: connections are made inside rounds and ahead of them, and the
	// next round to finish takes what has accumulated.
	seedBytes atomic.Int64
	seedShips atomic.Int64

	oracleMu sync.Mutex // serializes oracle access across connections
}

// sessionSlot is one worker connection — connected ahead of the first
// round or on the slot's first dispatch, kept until an attempt on it
// fails. Only one goroutine touches it at a time: the round's slot loop,
// or the connect that ConnectAhead started and every other user waits
// out first (await).
type sessionSlot struct {
	index      int // position in Session.slots; -1 for a fallback's private slot
	transport  Transport
	conn       io.ReadWriteCloser // non-nil: handshaken, its seed resident
	connecting chan struct{}      // closed when the ahead-of-time connect settles; nil without one
}

// await blocks until the slot's ahead-of-time connect, if any, has
// settled one way or the other.
func (slot *sessionSlot) await() {
	if slot.connecting != nil {
		<-slot.connecting
	}
}

// track names the slot's row in a trace.
func (slot *sessionSlot) track() string {
	if slot.index < 0 {
		return "slot (fallback)"
	}
	return fmt.Sprintf("slot %d", slot.index)
}

// NewSession opens a sticky shard session for the pair over the
// transport. Nothing is dialed yet: a slot connects on its first
// dispatch, unless ConnectAhead started it earlier. A negative field
// in opts.Retry is an error.
func NewSession(transport Transport, pair *hetnet.AlignedPair, opts Options) (*Session, error) {
	if transport == nil {
		return nil, fmt.Errorf("distrib: nil transport")
	}
	if pair == nil {
		return nil, fmt.Errorf("distrib: nil pair")
	}
	var err error
	if opts.Retry, err = opts.Retry.Resolve(defaultShardTimeout); err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	return &Session{
		transport: transport,
		opts:      opts,
		pair:      pair,
		homes:     make(map[int]int),
	}, nil
}

// Metrics returns the running totals across every round run so far,
// aborted ones included, plus the seed ships of connections no round has
// reported yet.
func (s *Session) Metrics() *Metrics {
	m := s.cum
	m.Shards = append([]ShardMetrics(nil), s.cum.Shards...)
	m.SeedBytes += s.seedBytes.Load()
	m.SeedShips += int(s.seedShips.Load())
	return &m
}

// Close tears down the worker connections — all at once, so N worker
// processes exit side by side instead of each being waited for in turn —
// and takes the session's warm counter back out of this process's seed
// cache. A Run after Close redials and every shard is prepared cold (the
// workers' warm state died with the connections).
func (s *Session) Close() error {
	errs := make([]error, len(s.slots))
	var wg sync.WaitGroup
	for i, slot := range s.slots {
		wg.Add(1)
		go func(i int, slot *sessionSlot) {
			defer wg.Done()
			slot.await()
			errs[i] = s.dropConn(slot)
		}(i, slot)
	}
	wg.Wait()
	if s.seedBase != nil {
		seedCacheEvict(s.seedFP, s.seedBase)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// workerCap is the most worker connections the session keeps.
func (s *Session) workerCap() int {
	if s.opts.Workers > 0 {
		return s.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// growSlots makes sure the session has at least n slots.
func (s *Session) growSlots(n int) {
	for len(s.slots) < n {
		s.slots = append(s.slots, &sessionSlot{index: len(s.slots), transport: s.transport})
	}
}

// ConnectAhead starts connecting the worker slots a plan of the given
// shard count will use — min(shards, Options.Workers) of them — and
// returns at once, so the caller can go on to build that plan while the
// workers start, handshake and install the seed. Each slot connects
// through the same function a dispatch uses when it finds the slot cold,
// under the same deadline and into the same audit; the first Run waits
// for each slot's connect to settle before giving it work. A connect
// that fails leaves its slot cold, and the slot's first dispatch redials
// exactly as after a burnt connection. Like Run, not safe for concurrent
// use; Close waits for (and then closes) whatever was started.
func (s *Session) ConnectAhead(shards int) {
	n := max(0, min(shards, s.workerCap()))
	s.growSlots(n)
	for _, slot := range s.slots[:n] {
		if slot.connecting != nil || slot.conn != nil {
			continue
		}
		slot.connecting = make(chan struct{})
		go func(slot *sessionSlot) {
			defer close(slot.connecting)
			if err := s.connect(slot, 0); err != nil {
				logger.Debug("ahead-of-time connect failed, slot stays cold", "slot", slot.index, "err", err)
				if slot.conn != nil {
					reportHealth(slot, false)
				}
				s.dropConn(slot)
			}
		}(slot)
	}
}

// ensureSeed exports and encodes the session's seed, once, and reports
// that build's error ever after. The seed is a property of the pair and
// training config, both fixed for the session's lifetime, so every
// connection offers (and may ship) the same body — and a build that failed
// here would fail the same way anywhere else (the in-process fallback
// worker needs the same seed), so it is not retried.
func (s *Session) ensureSeed() error {
	s.seedOnce.Do(func() {
		fp, body, base, err := buildSeed(s.pair, s.opts.Base, s.opts.Train, s.opts.Tracer.TraceID())
		if err != nil {
			s.seedErr = fmt.Errorf("distrib: seed: %w", err)
			return
		}
		s.seedFP, s.seedBody, s.seedBase = fp, body, base
	})
	return s.seedErr
}

// connect gives the slot a live connection: dialed and handshaken, the
// session's seed resident on the worker, recorded as one "connect" span
// on the slot's own track under parent. It is the only way a session
// connection comes to exist. An error may leave a half-made connection in
// slot.conn; the caller burns it.
func (s *Session) connect(slot *sessionSlot, parent uint64) error {
	sp := s.opts.Tracer.Start("connect", parent)
	sp.SetTrack(slot.track())
	defer sp.End()
	conn, err := slot.transport.Dial()
	if err != nil {
		return err
	}
	slot.conn = conn
	// Ahead of the first round this is where the seed gets built: by the
	// first connection to get this far, while the workers are still
	// starting. A build failure is the coordinator's, not this worker's:
	// the connection goes back unjudged and the slot stays cold.
	if err := s.ensureSeed(); err != nil {
		s.dropConn(slot)
		return err
	}
	// One deadline spans the handshake, install confirmation included: a
	// worker that never answers becomes a failed connect.
	disarm := armDeadline(conn, s.opts.Retry.Timeout)
	defer disarm()
	offered := time.Now()
	n, err := handshake(conn, s.seedFP, s.seedBody)
	s.seedBytes.Add(n)
	sp.Annotate("bytes", fmt.Sprintf("%d", n))
	// Offer to the worker's last Hello: the worker's start-up where the
	// dial spawned it, any wait on another connection's install, a ship.
	sp.Annotate("handshake_ms", fmt.Sprintf("%.1f", time.Since(offered).Seconds()*1e3))
	if err != nil {
		return err
	}
	if n > 0 {
		s.seedShips.Add(1)
		sp.Annotate("seed", "ship")
	} else {
		sp.Annotate("seed", "hit")
	}
	return nil
}

// dropConn closes a slot's connection and forgets the shards homed on
// it: their warm state died with it.
func (s *Session) dropConn(slot *sessionSlot) error {
	var err error
	if slot.conn != nil {
		err = slot.conn.Close()
		slot.conn = nil
	}
	s.mu.Lock()
	maps.DeleteFunc(s.homes, func(_, home int) bool { return home == slot.index })
	s.mu.Unlock()
	return err
}

// Run executes one round of the plan: every shard trains on a worker
// (warm where the plan is stable, cold otherwise) and the votes merge
// into one globally one-to-one result. The plan should be the same
// object family across rounds — same parts, with prelabels appended and
// budget re-split between calls; a part whose pool changed is prepared
// cold by the worker that finds it so. oracle may be nil when the plan's
// total budget is zero.
//
// Votes are committed to the merger only when a shard's Done frame
// arrives, so a shard that dies mid-stream retries from scratch without
// double-voting; within that rule the reconciliation is streaming —
// shards commit as they finish, in any order, and the merged result is
// order-independent.
//
// Returns the round's result and the round's metrics (cumulative totals
// via Metrics). An aborted round still returns its metrics: every shard
// is listed with its final attempt count, which is what a caller
// diagnosing the abort needs. A session whose seed cannot be built
// returns that error ("distrib: seed: …") from every Run before anything
// is dispatched — no retry or fallback could do better.
func (s *Session) Run(plan *partition.Plan, oracle active.Oracle) (*partition.Result, *Metrics, error) {
	if plan == nil || len(plan.Parts) == 0 {
		return nil, nil, fmt.Errorf("distrib: empty plan")
	}
	totalBudget := 0
	for i := range plan.Parts {
		totalBudget += plan.Parts[i].Budget
	}
	if totalBudget > 0 && oracle == nil {
		return nil, nil, fmt.Errorf("distrib: plan carries budget %d but no oracle", totalBudget)
	}
	start := time.Now()

	// Before any slot runs: a build that nothing ahead of the round has
	// done yet belongs to no shard attempt's deadline — and a failed one
	// spends no attempt at all.
	if err := s.ensureSeed(); err != nil {
		return nil, nil, err
	}

	k := len(plan.Parts)
	s.growSlots(min(s.workerCap(), k))

	tr := s.opts.Tracer
	roundSpan := tr.Start(fmt.Sprintf("round %d", s.round), 0)
	defer roundSpan.End()
	roundSpan.Annotate("shards", fmt.Sprintf("%d", k))

	rr := &sessionRound{
		s:         s,
		plan:      plan,
		oracle:    oracle,
		seed:      partition.RoundSeed(s.opts.Train.Seed, s.round),
		tracer:    tr,
		roundSpan: roundSpan.ID(),
		// Worst-case enqueues per shard: one per transport attempt, one
		// fallback dispatch — sized so no enqueue under the state mutex can
		// ever block.
		queue:       make(chan int, k*(s.opts.Retry.Attempts+1)),
		attempts:    make([]int, k),
		fellBack:    make([]bool, k),
		results:     make([]*shardResult, k),
		merger:      plan.NewMerger(),
		outstanding: k,
	}

	// Sticky preference: a shard goes straight back to the slot that ran
	// it last; every other shard — all of them in a first round — feeds
	// the shared queue, which the slots drain as they come free (list
	// scheduling).
	held := make([][]int, len(s.slots))
	s.mu.Lock()
	for i := range plan.Parts {
		if home, ok := s.homes[plan.Parts[i].Index]; ok {
			held[home] = append(held[home], i)
		} else {
			rr.queue <- i
		}
	}
	s.mu.Unlock()

	var wg sync.WaitGroup
	for sl, slot := range s.slots {
		wg.Add(1)
		go func(slot *sessionSlot, held []int) {
			defer wg.Done()
			rr.slotLoop(slot, held)
		}(slot, held[sl])
	}
	wg.Wait()

	metrics := rr.buildMetrics()
	metrics.publish()
	s.cum.add(metrics)
	if rr.err != nil {
		return nil, metrics, rr.err
	}
	reports := make([]partition.PartReport, k)
	weights := make(map[int][]float64, k)
	for i, sr := range rr.results {
		reports[i] = sr.report
		weights[plan.Parts[i].Index] = sr.weights
	}
	rec := tr.Start("reconcile", roundSpan.ID())
	res := rr.merger.Finish()
	rec.End()
	res.Reports = reports
	res.ShardWeights = weights
	res.Elapsed = time.Since(start)
	s.round++
	return res, metrics, nil
}

// sessionRound is the shared dispatch state of one Run.
type sessionRound struct {
	s      *Session
	plan   *partition.Plan
	oracle active.Oracle
	seed   int64 // this round's training seed; with the part index, it keys the backoff jitter

	// tracer/roundSpan carry the round's trace context; a nil tracer (the
	// default) makes every span call a no-op and keeps wire trace IDs
	// zero.
	tracer    *telemetry.Tracer
	roundSpan uint64

	// queue feeds the slots every dispatch that has no warm home: first
	// attempts of un-homed shards, retries, fallbacks.
	queue chan int

	// queries counts every oracle round-trip actually answered —
	// including those of failed shard attempts whose votes were
	// discarded, since the oracle (a paid labeler, a CountingOracle) was
	// really consulted.
	queries atomic.Int64

	mu             sync.Mutex
	attempts       []int
	fellBack       []bool            // the in-process fallback was dispatched
	results        []*shardResult    // non-nil once the shard committed
	merger         *partition.Merger // commits stream in as shards finish
	outstanding    int
	misses         int
	totalRetries   int
	totalFallbacks int
	err            error
	closed         bool
}

// buildMetrics assembles the round's transport audit. Safe to call after
// the slot loops exit (no concurrent mutation); on an aborted round the
// per-shard entries of failed shards carry their final attempt counts
// with zero byte tallies.
func (rr *sessionRound) buildMetrics() *Metrics {
	m := &Metrics{
		Retries: rr.totalRetries, Fallbacks: rr.totalFallbacks,
		CacheMisses: rr.misses,
		Queries:     int(rr.queries.Load()),
		// Every ship since the last round reported, ahead-of-time connects
		// included.
		SeedBytes: rr.s.seedBytes.Swap(0),
		SeedShips: int(rr.s.seedShips.Swap(0)),
	}
	for i, sr := range rr.results {
		sm := ShardMetrics{
			Shard:    rr.plan.Parts[i].Index,
			Attempts: rr.attempts[i],
			Fallback: rr.fellBack[i],
		}
		if sr != nil {
			sm.JobBytes, sm.CacheHit = sr.jobBytes, sr.cacheHit
			m.ResultBytes += sr.readBytes
			if sr.cacheHit {
				m.CacheHits++
				m.DeltaBytes += sr.jobBytes
			} else {
				m.JobBytes += sr.jobBytes
			}
		}
		m.Shards = append(m.Shards, sm)
	}
	return m
}

// finish closes the queue exactly once so the slot loops drain. Callers
// hold rr.mu.
func (rr *sessionRound) finish() {
	if !rr.closed {
		rr.closed = true
		close(rr.queue)
	}
}

// slotLoop runs one slot for the round: first the shards its connection
// holds warm, then whatever the shared queue hands out, until the round
// finishes. A slot still connecting ahead of time takes nothing off the
// queue until that settles — a shard is better off with a slot that is
// ready.
func (rr *sessionRound) slotLoop(slot *sessionSlot, held []int) {
	slot.await()
	for _, i := range held {
		rr.attempt(slot, i)
	}
	for i := range rr.queue {
		rr.attempt(slot, i)
	}
}

// attempt runs one dispatch of the plan's i-th part on the slot and
// settles it: commit on success; on failure burn the connection and
// requeue the shard (with backoff on its next dispatch) until its
// attempt budget runs out, which degrades it to the in-process fallback.
func (rr *sessionRound) attempt(slot *sessionSlot, i int) {
	rr.mu.Lock()
	if rr.err != nil {
		// Aborted round: drain without executing.
		rr.mu.Unlock()
		return
	}
	rr.attempts[i]++
	try := rr.attempts[i]
	isFallback := rr.fellBack[i]
	rr.mu.Unlock()
	// A retry of a dead attempt backs off first (capped exponential +
	// jitter keyed by the round's seed and the part, slept in the
	// retrying slot) so a flapping transport is probed, not hammered by
	// every slot at once.
	partIndex := rr.plan.Parts[i].Index
	if try > 1 && !isFallback {
		time.Sleep(retry.Delay(try-1, retry.SplitMix64(uint64(rr.seed))^uint64(partIndex)))
	}

	// Each attempt renders on its shard's trace track; a fallback gets a
	// suffixed one.
	track := fmt.Sprintf("shard %d", partIndex)
	if isFallback {
		// Degradation ladder's last rung: the transport gave up on this
		// shard, so it runs over a private loopback worker — the identical
		// partition.PreparePart+Train path, so the merged result is
		// bit-identical to a healthy run's. The private connection
		// handshakes like any other (the loopback worker shares the
		// process-wide seed cache) and dies with the attempt.
		logger.Warn("shard degraded to in-process fallback", "shard", partIndex, "attempt", try)
		track += " (fallback)"
		slot = &sessionSlot{index: -1, transport: Loopback{}}
		defer rr.s.dropConn(slot)
	}
	sr, err := rr.runShard(slot, i, track, try)
	if slot.conn != nil {
		reportHealth(slot, err == nil)
	}
	if err != nil {
		rr.s.dropConn(slot)
		rr.fail(i, err)
		return
	}
	rr.commit(slot, i, sr)
	if sr.expired {
		// The watchdog closed the conn as the attempt finished: the votes
		// stand, the connection and the shard's warm home do not.
		rr.s.dropConn(slot)
	}
}

// reportHealth attributes an attempt's outcome to its worker when both
// the conn and the transport support identification — the TCP
// transport's quarantine feed. Optional-interface probing keeps the
// Transport contract at one method.
func reportHealth(slot *sessionSlot, ok bool) {
	wc, canID := slot.conn.(interface{ WorkerID() string })
	hr, canReport := slot.transport.(interface{ ReportWorker(string, bool) })
	if canID && canReport {
		if id := wc.WorkerID(); id != "" {
			hr.ReportWorker(id, ok)
		}
	}
}

// commit folds a completed attempt into the merged result. Commit is
// transactional per shard: the votes only reach the merger once the Done
// frame proved the stream complete, so a retried shard never
// double-votes. The committing slot becomes the shard's home.
func (rr *sessionRound) commit(slot *sessionSlot, i int, sr *shardResult) {
	partIndex := rr.plan.Parts[i].Index
	rr.mu.Lock()
	for _, v := range sr.votes {
		rr.merger.Add(v)
	}
	sr.votes = nil
	rr.results[i] = sr
	rr.outstanding--
	if rr.outstanding == 0 {
		rr.finish()
	}
	rr.mu.Unlock()

	rr.s.mu.Lock()
	if slot.index >= 0 {
		rr.s.homes[partIndex] = slot.index
	} else {
		delete(rr.s.homes, partIndex) // a fallback's private worker dies with its attempt
	}
	rr.s.mu.Unlock()
}

// fail requeues the shard, degrades it to the in-process fallback when
// its transport attempts are spent, or aborts the round when even the
// fallback failed.
func (rr *sessionRound) fail(i int, err error) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.closed {
		// Another shard already aborted the round — nothing to recover.
		return
	}
	if rr.attempts[i] < rr.s.opts.Retry.Attempts {
		rr.totalRetries++
		logger.Debug("shard attempt failed, retrying",
			"shard", rr.plan.Parts[i].Index, "attempt", rr.attempts[i], "err", err)
		rr.queue <- i
		return
	}
	if !rr.fellBack[i] {
		rr.fellBack[i] = true
		rr.totalFallbacks++
		rr.queue <- i
		return
	}
	rr.err = fmt.Errorf("distrib: shard %d failed after %d attempts: %w", rr.plan.Parts[i].Index, rr.attempts[i], err)
	rr.finish()
}

// runShard executes the plan's i-th part on the slot's connection —
// connected first when the slot has none — as the part's full Job, and
// consumes the response stream to its Done frame. An error leaves the
// connection in an unknown state; the caller burns it.
func (rr *sessionRound) runShard(slot *sessionSlot, i int, track string, attempt int) (sr *shardResult, err error) {
	part := &rr.plan.Parts[i]
	// The attempt span is the wire-propagated parent: the worker's
	// prepare/train/votes spans hang under it, so a retry's worker spans
	// land under the retry, not the failed attempt.
	sp := rr.tracer.Start(fmt.Sprintf("shard %d", part.Index), rr.roundSpan)
	sp.SetTrack(track)
	sp.Annotate("attempt", fmt.Sprintf("%d", attempt))
	defer sp.End()
	if slot.conn == nil {
		// A failure burns the conn like any shard failure — the retry
		// redials and handshakes again.
		if err := rr.s.connect(slot, sp.ID()); err != nil {
			return nil, err
		}
	}
	// The per-shard deadline spans the whole dispatch — the Job, the
	// response stream — and is disarmed before the (persistent) connection
	// moves on to its next shard.
	disarm := armDeadline(slot.conn, rr.s.opts.Retry.Timeout)
	defer func() {
		if disarm() && err == nil {
			sr.expired = true
		}
	}()
	// A shard sent back to the slot that ran it last is expected warm; a
	// cold Done from there is a cache miss.
	rr.s.mu.Lock()
	home, homed := rr.s.homes[part.Index]
	rr.s.mu.Unlock()

	job := NewJob(rr.s.pair, part, rr.s.opts.Train)
	job.Seed, job.TraceID, job.SpanID = rr.seed, rr.tracer.TraceID(), sp.ID()
	ship := rr.tracer.Start("ship", sp.ID())
	ship.SetTrack(track)
	cw := &countingWriter{w: slot.conn}
	err = WriteFrame(cw, FrameJob, job)
	ship.Annotate("bytes", fmt.Sprintf("%d", cw.n))
	ship.End()
	if err != nil {
		return nil, err
	}
	sr = &shardResult{jobBytes: cw.n}
	env := &streamEnv{oracle: rr.oracle, oracleMu: &rr.s.oracleMu, queries: &rr.queries}
	if err := collectShard(slot.conn, part.Index, env, sr); err != nil {
		return nil, err
	}
	ingestWorkerSpans(rr.tracer, track, sr.spans)
	if homed && home == slot.index && !sr.cacheHit {
		rr.mu.Lock()
		rr.misses++
		rr.mu.Unlock()
	}
	return sr, nil
}
