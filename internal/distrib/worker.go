package distrib

import (
	"fmt"
	"io"
	"reflect"
	"slices"
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
// keeps warm for later rounds. Each entry holds the pool's feature matrix
// — megabytes at crawl scale — so the cache is LRU-bounded; a session's
// shards-per-worker is far below this in any sane plan, and an eviction
// only costs one cold preparation.
const DefaultShardCacheSize = 32

// Serve runs the worker side of one connection: the handshake, which
// pins the connection's seed, then a loop of job → (query/votes)* → done
// until the coordinator closes the stream. A job-level failure is
// reported as an Error frame and the loop continues — the connection only
// dies on wire-level failures, or on a seed it could not install.
//
// Every job of the connection runs against the seed its handshake
// pinned. What a connection keeps besides is the shard cache: each job's
// prepared state (pool and feature matrix), keyed by shard, so a
// session's later round of the same shard — an equal pool and
// configuration with more prelabels — re-runs only training: counting
// and feature extraction are paid once per shard, not once per round.
func Serve(conn io.ReadWriter) error {
	return serveCache(conn, DefaultShardCacheSize)
}

// serveCache is Serve with an explicit shard-cache capacity: 0 disables
// caching, so every job is prepared cold.
func serveCache(conn io.ReadWriter, cacheSize int) error {
	// The coordinator speaks first: over fully synchronous links
	// (net.Pipe) two sides writing their Hello simultaneously would
	// deadlock, so the handshake is strictly coordinator-then-worker.
	seed, err := acceptSeed(conn)
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	cache := newShardCache(cacheSize)
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
			if err := runJob(conn, &job, seed, cache); err != nil {
				if werr := WriteFrame(conn, FrameError, &JobError{Shard: job.Shard, Msg: err.Error()}); werr != nil {
					return werr
				}
			}
		default:
			return fmt.Errorf("distrib: worker expected a job, got frame type %d", typ)
		}
	}
}

// preparedShard is one job's reusable pipeline state: everything that is
// a function of the job's shape (pool, prepared features, training
// configuration) on the connection's seed. The round's labels come with
// each job.
type preparedShard struct {
	shape    Job // the job it was prepared for, per-round fields cleared
	prepared *partition.Prepared
	train    core.Config // the job's resolved training configuration
}

// shardCache is a tiny LRU of prepared shards keyed by shard index.
// Workers are single-threaded per connection, so no locking.
type shardCache struct {
	max     int
	entries map[int]*preparedShard
	order   []int // least recently used first
}

func newShardCache(max int) *shardCache {
	return &shardCache{max: max, entries: make(map[int]*preparedShard)}
}

// get returns the shard prepared for a job of job's shape, or nil. An
// entry under the same shard index prepared for another pool or
// configuration — a drifted plan, a confused coordinator — does not
// match: reusing it would train the wrong pool.
func (c *shardCache) get(job *Job) *preparedShard {
	if ps := c.entries[job.Shard]; ps != nil && reflect.DeepEqual(ps.shape, job.shape()) {
		return ps
	}
	return nil
}

// put stores (or replaces) the shard's entry as the most recently used
// one — every job that completes, warm or cold, puts its shard —
// evicting the least recently used entry over capacity.
func (c *shardCache) put(ps *preparedShard) {
	if c.max <= 0 {
		return
	}
	shard := ps.shape.Shard
	c.entries[shard] = ps
	c.order = append(slices.DeleteFunc(c.order, func(s int) bool { return s == shard }), shard)
	for len(c.entries) > c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
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

func (o *wireOracle) Label(a hetnet.Anchor) float64 {
	o.seq++
	q := &Query{Shard: o.shard, Seq: o.seq, I: int32(a.I), J: int32(a.J)}
	if err := WriteFrame(o.conn, FrameQuery, q); err != nil {
		panic(wireAbort{err})
	}
	var ans Answer
	if err := ReadExpect(o.conn, FrameAnswer, &ans); err != nil {
		panic(wireAbort{err})
	}
	if ans.Seq != o.seq {
		panic(wireAbort{fmt.Errorf("distrib: answer seq %d for query %d", ans.Seq, o.seq)})
	}
	return ans.Label
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

// runJob executes one shard job on the connection's seed — prepare (or
// find prepared), train, stream — and caches the prepared state under the
// job's shard. It returns the error to report as an Error frame;
// wire-level failures panic through wireAbort and are rethrown to kill
// the connection.
func runJob(conn io.ReadWriter, job *Job, seed *seedEntry, cache *shardCache) (err error) {
	defer rethrowWire(&err)
	t0 := time.Now()
	tr := childTracer(job.TraceID, job.SpanID)
	prep := tr.Start("prepare", job.SpanID)
	// A shard this connection prepared for an equal job re-runs warm on
	// that state; anything else forks the seed. The job is just a pool of
	// indices into the seed, bounds-checked against it either way.
	ps := cache.get(job)
	cached := ps != nil
	part, err := job.part(seed)
	if err != nil {
		return err
	}
	if !cached {
		train, err := job.trainConfig().TrainOptions()
		if err != nil {
			return err
		}
		// Fork shares the seeded anchor-free layer — literally the
		// in-process PartitionedAligner path, which is what makes the votes
		// bit-identical by construction.
		counter := seed.counter.Fork()
		counter.SetAnchors(part.TrainPos)
		prepared, err := partition.PreparePart(counter, part, train.Features)
		if err != nil {
			return err
		}
		ps = &preparedShard{shape: job.shape(), prepared: prepared, train: train.Core}
	}
	prep.Annotate("cached", fmt.Sprint(cached))
	prep.End()
	if err := trainAndStream(conn, job, part, ps, cached, t0, tr); err != nil {
		return err
	}
	// Cache only after a full successful round trip: a shard that failed
	// or died mid-stream retries from scratch anyway.
	cache.put(ps)
	return nil
}

// trainAndStream runs the training half of a shard pipeline on prepared
// state and streams the votes and the Done report. part is the job's,
// carrying the round's budget and prelabels; cached is the verdict Done
// reports. tr (nil when the coordinator isn't tracing) records
// train/votes spans under the job's SpanID — the coordinator's
// wire-propagated attempt span — and ships everything recorded this job
// back on the Done frame.
func trainAndStream(conn io.ReadWriter, job *Job, part *partition.Part, ps *preparedShard, cached bool, t0 time.Time, tr *telemetry.Tracer) error {
	shard, parent := part.Index, job.SpanID
	cfg := ps.train
	cfg.Seed = job.Seed
	var oracle active.Oracle
	if part.Budget > 0 {
		oracle = &wireOracle{conn: conn, shard: shard}
	}
	train := tr.Start("train", parent)
	res, err := ps.prepared.Train(part, cfg, oracle)
	if err != nil {
		return err
	}
	train.Annotate("queries", fmt.Sprintf("%d", res.QueryCount()))
	train.End()

	vs := tr.Start("votes", parent)
	votes := partition.PartVotes(part, ps.prepared.Links, res)
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
		TrainPos:   len(part.TrainPos),
		Candidates: len(part.Candidates),
		Budget:     part.Budget,
		Queries:    res.QueryCount(),
		ElapsedNS:  time.Since(t0).Nanoseconds(),
		Cached:     cached,
		W:          res.W,
		Spans:      wireSpans(tr),
	})
}
