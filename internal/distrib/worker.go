package distrib

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// voteBatchSize caps votes per FrameVotes so one huge pool does not
// buffer an unbounded frame.
const voteBatchSize = 4096

// DefaultShardCacheSize is how many prepared shards a worker connection
// keeps warm for JobRef re-runs. Each entry holds a forked counter (its
// anchor-dependent layer; the attribute-only layer is the seed's, shared)
// and the pool's feature matrix — megabytes at crawl scale — so the cache
// is LRU-bounded; a session's shards-per-worker is far below this in any
// sane plan, and an eviction only costs a full-Job re-ship.
const DefaultShardCacheSize = 32

// Serve runs the worker side of one connection: handshake, seed
// negotiation, then a loop of job → (progress/query/votes)* → done until
// the coordinator closes the stream. A job-level failure is reported as
// an Error frame and the loop continues — the connection only dies on
// wire-level failures.
//
// A job names the installed seed it runs against, so a worker serves
// shards of different runs back to back as long as their seeds are
// resident. What a connection itself keeps is the shard cache: a
// fingerprinted job's prepared state (forked counter, feature matrix,
// accumulated labels) is retained so a session's later rounds can re-run
// it via a JobRef frame carrying only the label delta — counting and
// feature extraction are paid once per shard, not once per round.
func Serve(conn io.ReadWriter) error {
	return ServeCache(conn, DefaultShardCacheSize)
}

// ServeCache is Serve with an explicit shard-cache capacity: 0 disables
// caching (every JobRef misses), which also exercises the coordinator's
// full-Job fallback in tests.
func ServeCache(conn io.ReadWriter, cacheSize int) error {
	// The coordinator speaks first: over fully synchronous links
	// (net.Pipe) two sides writing their Hello simultaneously would
	// deadlock, so the handshake is strictly coordinator-then-worker.
	if err := ReadExpect(conn, FrameHello, &Hello{}); err != nil {
		if err == io.EOF {
			return nil
		}
		return err
	}
	if err := WriteFrame(conn, FrameHello, &Hello{Role: "worker"}); err != nil {
		return err
	}
	cache := newShardCache(cacheSize)
	// A seed this connection was told to ship stays pending on it until
	// the install — or until the connection ends, however it ends.
	owner := new(seedOwner)
	defer seedRelease(owner)
	for {
		typ, body, err := ReadFrame(conn)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch typ {
		case FrameJob:
			var job Job
			if err := DecodeBody(body, &job); err != nil {
				return fmt.Errorf("distrib: decode job: %w", err)
			}
			if err := runJob(conn, &job, cache); err != nil {
				if errors.Is(err, errCancelled) {
					// The coordinator abandoned this job (a hedge twin won);
					// no Error frame is owed — loop for the next job.
					continue
				}
				if werr := WriteFrame(conn, FrameError, &JobError{Shard: job.Shard, Msg: err.Error()}); werr != nil {
					return werr
				}
			}
		case FrameJobRef:
			var ref JobRef
			if err := DecodeBody(body, &ref); err != nil {
				return fmt.Errorf("distrib: decode job ref: %w", err)
			}
			if err := runJobRef(conn, &ref, cache); err != nil {
				if errors.Is(err, errCancelled) {
					continue
				}
				if werr := WriteFrame(conn, FrameError, &JobError{Shard: ref.Shard, Msg: err.Error()}); werr != nil {
					return werr
				}
			}
		case FrameCancel:
			// A cancel that lands between jobs is a stale abandon notice
			// for a job that already finished (or never dispatched here) —
			// advisory, so drop it and keep serving.
			var c Cancel
			if err := DecodeBody(body, &c); err != nil {
				return fmt.Errorf("distrib: decode cancel: %w", err)
			}
		case FrameSeedRef:
			var ref SeedRef
			if err := DecodeBody(body, &ref); err != nil {
				return fmt.Errorf("distrib: decode seed ref: %w", err)
			}
			// A miss makes this connection the one shipping the seed; a
			// SeedRef that finds another connection already doing so waits
			// for that install and then hits (seedClaim).
			hit := seedClaim(ref.Fingerprint, owner)
			if err := WriteFrame(conn, FrameCacheAck, &CacheAck{Shard: -1, Fingerprint: ref.Fingerprint, Hit: hit}); err != nil {
				return err
			}
		case FrameSeed:
			// A decode failure here means a codec bug, not a bad seed —
			// the CRC already vouched for the bytes — so it kills the
			// connection. A successful install is confirmed with a
			// CacheAck (the coordinator blocks on it: no job may reference
			// the seed before it is resident); an install failure (hostile
			// entries) is reported as an Error frame with the no-shard
			// sentinel, which the coordinator's negotiation read converts
			// into a retried (self-healing) connection. Either way the
			// connections waiting on this install are let go: after a
			// success they hit, after a failure one of them ships next.
			var ws WireSeed
			if err := DecodeBody(body, &ws); err != nil {
				return fmt.Errorf("distrib: decode seed: %w", err)
			}
			err := installSeed(&ws)
			seedRelease(owner)
			if err != nil {
				if werr := WriteFrame(conn, FrameError, &JobError{Shard: -1, Msg: err.Error()}); werr != nil {
					return werr
				}
			} else if err := WriteFrame(conn, FrameCacheAck, &CacheAck{Shard: -1, Fingerprint: ws.Fingerprint, Hit: true}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("distrib: worker expected a job or job-ref frame, got type %d", typ)
		}
	}
}

// preparedShard is one job's reusable pipeline state: everything that is
// a function of the fingerprint (pool, counter, prepared features) plus
// the mutable label state that accumulates across a session's rounds.
type preparedShard struct {
	part     *partition.Part // Index is the job's shard; Prelabeled grows by each JobRef's delta
	prepared *partition.Prepared
	train    core.Config // the job's resolved training configuration
	n1, n2   int         // the seed's node counts: the bounds of every index
}

// shardCache is a tiny LRU of prepared shards keyed by job fingerprint.
// Workers are single-threaded per connection, so no locking.
type shardCache struct {
	max     int
	entries map[uint64]*preparedShard
	order   []uint64 // least recently used first
}

func newShardCache(max int) *shardCache {
	return &shardCache{max: max, entries: make(map[uint64]*preparedShard)}
}

// get returns the cached shard for fp and marks it most recently used.
func (c *shardCache) get(fp uint64) *preparedShard {
	ps := c.entries[fp]
	if ps != nil {
		c.touch(fp)
	}
	return ps
}

func (c *shardCache) touch(fp uint64) {
	for k, f := range c.order {
		if f == fp {
			c.order = append(append(c.order[:k:k], c.order[k+1:]...), fp)
			return
		}
	}
	c.order = append(c.order, fp)
}

// put stores (or replaces) fp, evicting the least recently used entry
// over capacity.
func (c *shardCache) put(fp uint64, ps *preparedShard) {
	if c.max <= 0 || fp == 0 {
		return
	}
	c.entries[fp] = ps
	c.touch(fp)
	for len(c.entries) > c.max {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, old)
	}
}

// wireAbort carries a wire-level failure out of the oracle callback —
// the Oracle interface has no error channel, so the pipeline unwinds by
// panic and runJob rethrows it as a connection error.
type wireAbort struct{ err error }

// wireOracle answers oracle queries by round-tripping them to the
// coordinator, where the human or truth oracle lives.
type wireOracle struct {
	conn  io.ReadWriter
	shard int
	seq   uint64
}

// errCancelled unwinds a job the coordinator abandoned mid-stream (a
// hedge twin won the race). It is a job-level outcome, not a connection
// failure: the serve loop swallows it without an Error frame and keeps
// the connection for the next job.
var errCancelled = errors.New("distrib: job cancelled by coordinator")

func (o *wireOracle) Label(a hetnet.Anchor) float64 {
	o.seq++
	q := &Query{Shard: o.shard, Seq: o.seq, I: int32(a.I), J: int32(a.J)}
	if err := WriteFrame(o.conn, FrameQuery, q); err != nil {
		panic(wireAbort{err})
	}
	// Waiting for an Answer is the one place a worker blocks on the
	// coordinator mid-job, so it is where a Cancel must be honored —
	// otherwise an abandoned worker sits here until its conn is torn
	// down.
	for {
		typ, body, err := ReadFrame(o.conn)
		if err != nil {
			panic(wireAbort{err})
		}
		switch typ {
		case FrameAnswer:
			var ans Answer
			if err := DecodeBody(body, &ans); err != nil {
				panic(wireAbort{err})
			}
			if ans.Seq != o.seq {
				panic(wireAbort{fmt.Errorf("distrib: answer seq %d for query %d", ans.Seq, o.seq)})
			}
			return ans.Label
		case FrameCancel:
			// Only one job runs per connection, so any cancel here targets
			// the current one: abandon it without an Error frame.
			panic(wireAbort{errCancelled})
		default:
			panic(wireAbort{fmt.Errorf("distrib: unexpected frame type %d, want %d", typ, FrameAnswer)})
		}
	}
}

// rethrowWire converts a wireAbort panic back into the error that kills
// the connection; any other panic propagates.
func rethrowWire(err *error) {
	if r := recover(); r != nil {
		if wa, ok := r.(wireAbort); ok {
			*err = wa.err
			return
		}
		panic(r)
	}
}

// runJob executes one shard job — fork the seed's counter, prepare,
// train, stream — and caches the prepared state under the job's
// fingerprint. It returns the error to report as an Error frame;
// wire-level failures panic through wireAbort and are rethrown to kill
// the connection.
func runJob(conn io.ReadWriter, job *Job, cache *shardCache) (err error) {
	defer rethrowWire(&err)
	t0 := time.Now()
	tr := childTracer(job.TraceID, job.SpanID)
	prep := tr.Start("prepare", job.SpanID)
	// The warm counter and the index bounds come from the
	// connection-negotiated seed; the job is just a pool of indices into
	// it. A job that names no seed is malformed; a missing one means the
	// coordinator and worker disagree about this connection's state — fail
	// the shard either way, and the retry redial renegotiates.
	seed := seedCacheGet(job.SeedFP)
	if job.SeedFP == 0 || seed == nil {
		return fmt.Errorf("distrib: job shard %d references seed %016x, not installed here", job.Shard, job.SeedFP)
	}
	part, err := job.part(seed)
	if err != nil {
		return err
	}
	train, err := job.trainConfig().TrainOptions()
	if err != nil {
		return err
	}
	if err := WriteFrame(conn, FrameProgress, &Progress{Shard: job.Shard, Stage: "counting"}); err != nil {
		return err
	}
	// Fork shares the seeded anchor-free layer — literally the in-process
	// PartitionedAligner path, which is what makes the votes bit-identical
	// by construction.
	counter := seed.counter.Fork()
	counter.SetAnchors(part.TrainPos)
	prepared, err := partition.PreparePart(counter, part, train.Features)
	if err != nil {
		return err
	}
	ps := &preparedShard{part: part, prepared: prepared, train: train.Core, n1: seed.n1, n2: seed.n2}
	prep.End()
	if err := trainAndStream(conn, ps, job.Budget, job.Seed, t0, tr, job.SpanID); err != nil {
		return err
	}
	// Cache only after a full successful round trip: a shard that failed
	// or died mid-stream retries from scratch anyway.
	cache.put(job.Fingerprint, ps)
	return nil
}

// runJobRef answers a JobRef: ack the cache verdict, and on a hit fold
// the label delta into the cached shard and re-run training on the warm
// prepared state. A miss (restart, eviction, collision) is not an error
// — the coordinator re-ships the full job next.
func runJobRef(conn io.ReadWriter, ref *JobRef, cache *shardCache) (err error) {
	defer rethrowWire(&err)
	ps := cache.get(ref.Fingerprint)
	// A fingerprint that resolves to a different shard index is a
	// collision (or a confused coordinator); reusing the state would
	// train the wrong shard, so it must miss.
	hit := ps != nil && ps.part.Index == ref.Shard
	if err := WriteFrame(conn, FrameCacheAck, &CacheAck{Shard: ref.Shard, Fingerprint: ref.Fingerprint, Hit: hit}); err != nil {
		panic(wireAbort{err})
	}
	if !hit {
		return nil
	}
	t0 := time.Now()
	if err := WriteFrame(conn, FrameProgress, &Progress{Shard: ref.Shard, Stage: "cached"}); err != nil {
		panic(wireAbort{err})
	}
	for _, l := range ref.AddLabels {
		if l.I < 0 || int(l.I) >= ps.n1 || l.J < 0 || int(l.J) >= ps.n2 {
			return fmt.Errorf("distrib: job ref shard %d: label (%d,%d) out of range", ref.Shard, l.I, l.J)
		}
	}
	// The delta folds into the cached label state BEFORE training; a
	// training error afterwards is fine (the labels are real either way)
	// and a wire failure kills the connection and the cache with it.
	ps.part.Prelabeled = append(ps.part.Prelabeled, partLabels(ref.AddLabels)...)
	return trainAndStream(conn, ps, ref.Budget, ref.Seed, t0, childTracer(ref.TraceID, ref.SpanID), ref.SpanID)
}

// trainAndStream runs the training half of a shard pipeline on prepared
// state and streams progress, votes and the Done report. budget and seed
// are the round's values (a cached shard's own fields may be stale).
// tr (nil when the coordinator isn't tracing) records train/votes spans
// under parent — the coordinator's wire-propagated attempt span — and
// ships everything recorded this job back on the Done frame.
func trainAndStream(conn io.ReadWriter, ps *preparedShard, budget int, seed int64, t0 time.Time, tr *telemetry.Tracer, parent uint64) error {
	shard := ps.part.Index
	ps.part.Budget = budget
	cfg := ps.train
	cfg.Seed = seed
	var oracle active.Oracle
	if budget > 0 {
		oracle = &wireOracle{conn: conn, shard: shard}
	}
	if err := WriteFrame(conn, FrameProgress, &Progress{Shard: shard, Stage: "training"}); err != nil {
		return err
	}
	train := tr.Start("train", parent)
	res, err := ps.prepared.Train(ps.part, cfg, oracle)
	if err != nil {
		return err
	}
	train.Annotate("queries", fmt.Sprintf("%d", res.QueryCount()))
	train.End()
	if err := WriteFrame(conn, FrameProgress, &Progress{Shard: shard, Stage: "voting", Queries: res.QueryCount()}); err != nil {
		return err
	}

	vs := tr.Start("votes", parent)
	votes := partition.PartVotes(ps.part, ps.prepared.Links, res)
	batch := make([]Vote, 0, voteBatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := WriteFrame(conn, FrameVotes, &Votes{Shard: shard, Votes: batch}); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	for _, v := range votes {
		batch = append(batch, Vote{
			I:       int32(v.Link.I),
			J:       int32(v.Link.J),
			Label:   v.Label,
			Score:   v.Score,
			Queried: v.Queried,
			Fixed:   v.Fixed,
		})
		if len(batch) == voteBatchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	vs.End()
	return WriteFrame(conn, FrameDone, &Done{
		Shard:      shard,
		TrainPos:   len(ps.part.TrainPos),
		Candidates: len(ps.part.Candidates),
		Budget:     ps.part.Budget,
		Queries:    res.QueryCount(),
		ElapsedNS:  time.Since(t0).Nanoseconds(),
		W:          res.W,
		Spans:      wireSpans(tr),
	})
}
