package distrib

import (
	"fmt"
	"io"
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

// Options configures a Session — and so a Coordinator.Run, which is a
// one-round Session. Every knob applies to every round.
type Options struct {
	// Train is the training configuration shipped with every job.
	Train TrainConfig
	// Workers caps concurrent worker connections; default
	// min(shards, GOMAXPROCS).
	Workers int
	// Retry is the shard policy: Attempts tries per shard on the
	// transport, each on a fresh connection after the first, and
	// Timeout bounds each one end to end — connect and handshake, job
	// write, oracle round-trips, Done frame. A hung worker converts into
	// a failed try instead of stalling the run: conns with deadline
	// support (TCP, loopback pipes) get read/write deadlines, anything
	// else (subprocess stdio) a watchdog timer that force-closes the
	// conn. A zero Timeout means defaultShardTimeout. A shard out of
	// tries runs in-process over a private loopback worker — the
	// identical partition.PreparePart+Train path, so the votes are
	// bit-identical — and shows up in Metrics.Fallbacks and its
	// ShardMetrics.Fallback flag; the round aborts only when that
	// fallback fails too.
	Retry retry.Policy
	// Base, when set, is a warm counter over the run's pair whose
	// anchor-free count layer becomes the warm-counter seed (the facade
	// passes its planning counter, so the export is a cache read). Nil
	// derives the seed by cold-counting — still once per run, not once
	// per shard × worker.
	Base *metadiag.Counter
	// Tracer, when set, records the span tree: a root span per round
	// ("round N"), per-attempt shard spans on their own tracks —
	// retries and fallbacks included — and the worker-side prepare/train/
	// votes spans shipped back on Done frames, stitched under their
	// coordinator parents. Nil (the default) disables tracing; jobs then
	// carry zero trace IDs and workers record nothing.
	Tracer *telemetry.Tracer
}

// ShardMetrics records one shard's wire cost; attempts > 1 means the
// shard was retried.
type ShardMetrics struct {
	Shard    int
	JobBytes int64 // job frame bytes, last successful attempt
	Attempts int
	// CacheHit reports the worker re-ran the shard on the prepared state
	// it held from an earlier round (its Done frame's verdict).
	CacheHit bool
	// Fallback reports the shard's result came from the in-process
	// degradation path, not the transport.
	Fallback bool
}

// Metrics is a round's transport audit: what crossed the wire.
// Session.Run (and Coordinator.Run) returns the round's metrics,
// Session.Metrics the running totals.
type Metrics struct {
	Shards []ShardMetrics
	// JobBytes and DeltaBytes split the Job frame bytes of successful
	// attempts by the worker's verdict: jobs it prepared cold, and jobs it
	// re-ran warm on a shard it held.
	JobBytes    int64
	DeltaBytes  int64
	ResultBytes int64 // total bytes read back from workers
	// Queries counts oracle round-trips actually answered, INCLUDING
	// those of failed attempts whose votes were discarded — retried
	// shards re-spend oracle labels, and this is the audit of real
	// labeling cost. Equals Result.QueryCount only on retry-free runs.
	Queries int
	Retries int // shard re-dispatches after failed attempts
	// CacheHits counts jobs a worker re-ran warm. CacheMisses counts jobs
	// sent back to the connection that ran the shard last which the
	// worker nevertheless prepared cold — an evicted entry, a drifted
	// pool.
	CacheHits   int
	CacheMisses int
	// Fallbacks counts shards that degraded to the in-process loopback
	// path after exhausting their transport retry budget.
	Fallbacks int
	// SeedBytes counts the bytes of the Seed frames shipped; SeedShips
	// counts the connections that received one. A connection whose worker
	// already held the seed costs neither — its offer rides the Hello.
	SeedBytes int64
	SeedShips int
}

// add folds a per-shard or per-round tally into the receiver (used for
// the session's cumulative metrics).
func (m *Metrics) add(o *Metrics) {
	m.Shards = append(m.Shards, o.Shards...)
	m.JobBytes += o.JobBytes
	m.DeltaBytes += o.DeltaBytes
	m.ResultBytes += o.ResultBytes
	m.Queries += o.Queries
	m.Retries += o.Retries
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.Fallbacks += o.Fallbacks
	m.SeedBytes += o.SeedBytes
	m.SeedShips += o.SeedShips
}

// Coordinator is the single-shot entry point: Run dispatches a plan's
// shard jobs over the transport once and reconciles the returned vote
// streams into one globally one-to-one result. It holds no dispatch
// logic of its own — Run is a one-round Session. A zero Coordinator is
// not usable; set Transport.
type Coordinator struct {
	Transport Transport
	Opts      Options
}

// countingWriter tallies bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// countingReader tallies bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// shardResult is one successful shard execution, ready to commit.
type shardResult struct {
	votes     []partition.Vote
	report    partition.PartReport
	weights   []float64 // the shard's trained model, from its Done frame
	jobBytes  int64     // Job frame bytes written
	readBytes int64
	cacheHit  bool       // the worker re-ran the shard warm (Done.Cached)
	spans     []WireSpan // worker-side spans off the Done frame (tracing only)
	expired   bool       // the watchdog closed the conn as the attempt finished
}

// defaultShardTimeout is the per-attempt deadline when Options.Retry's
// Timeout is zero — generous against real shard training, tight against
// a genuinely hung worker.
const defaultShardTimeout = 2 * time.Minute

// armDeadline bounds every I/O on conn for the next d: conns with real
// deadline support (net.Conn — TCP, loopback pipes) get read/write
// deadlines, which surface as timeout errors at the blocked call;
// everything else (subprocess stdio) gets a watchdog timer that
// force-closes the conn, which surfaces as a closed-pipe error. Either
// way a hung worker becomes a retryable shard failure instead of a
// stalled run. The returned disarm must be called when the attempt
// finishes. It reports whether the watchdog fired first: then the conn
// is closed even if every I/O of the attempt went through. A passed
// deadline leaves the conn usable once cleared.
func armDeadline(conn io.ReadWriteCloser, d time.Duration) (disarm func() (fired bool)) {
	if dc, can := conn.(deadlineConn); can {
		t := time.Now().Add(d)
		if dc.SetReadDeadline(t) == nil && dc.SetWriteDeadline(t) == nil {
			return func() bool {
				dc.SetReadDeadline(time.Time{})
				dc.SetWriteDeadline(time.Time{})
				return false
			}
		}
	}
	timer := time.AfterFunc(d, func() { conn.Close() })
	return func() bool { return !timer.Stop() }
}

// Run executes every shard of the plan on remote workers and merges
// their votes: a Session opened for the call, run for one round and
// closed. The pair must be the ORIGINAL aligned pair the plan was built
// against; oracle may be nil when the plan's total budget is zero.
func (c *Coordinator) Run(pair *hetnet.AlignedPair, plan *partition.Plan, oracle active.Oracle) (*partition.Result, *Metrics, error) {
	s, err := NewSession(c.Transport, pair, c.Opts)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.Run(plan, oracle)
}

// streamEnv is the coordinator-side context for consuming one shard's
// response stream: the serialized oracle and the round-trip audit
// counter. One env may serve many concurrent collectShard calls.
type streamEnv struct {
	oracle   active.Oracle
	oracleMu *sync.Mutex
	queries  *atomic.Int64
}

// collectShard consumes one shard's frame stream — votes, oracle
// round-trips — through to its Done frame, accumulating into sr.
func collectShard(conn io.ReadWriter, partIndex int, env *streamEnv, sr *shardResult) error {
	cr := &countingReader{r: conn}
	defer func() { sr.readBytes += cr.n }()
	for {
		typ, body, err := ReadFrame(cr)
		if err != nil {
			return err
		}
		switch typ {
		case FrameVotes:
			var v Votes
			if err := DecodeBody(body, &v); err != nil {
				return err
			}
			if v.Shard != partIndex {
				return fmt.Errorf("distrib: votes for shard %d on shard %d's stream", v.Shard, partIndex)
			}
			for _, wv := range v.Votes {
				sr.votes = append(sr.votes, partition.Vote{
					Link:    hetnet.Anchor{I: int(wv.I), J: int(wv.J)},
					Label:   wv.Label,
					Score:   wv.Score,
					Queried: wv.Queried,
					Fixed:   wv.Fixed,
				})
			}
		case FrameQuery:
			var q Query
			if err := DecodeBody(body, &q); err != nil {
				return err
			}
			if env.oracle == nil {
				return fmt.Errorf("distrib: worker queried shard %d but no oracle is configured", q.Shard)
			}
			env.oracleMu.Lock()
			label := env.oracle.Label(hetnet.Anchor{I: int(q.I), J: int(q.J)})
			env.oracleMu.Unlock()
			env.queries.Add(1)
			if err := WriteFrame(conn, FrameAnswer, &Answer{Seq: q.Seq, Label: label}); err != nil {
				return err
			}
		case FrameDone:
			var d Done
			if err := DecodeBody(body, &d); err != nil {
				return err
			}
			sr.report = partition.PartReport{
				Index:      partIndex,
				TrainPos:   d.TrainPos,
				Candidates: d.Candidates,
				Budget:     d.Budget,
				Queries:    d.Queries,
				Elapsed:    time.Duration(d.ElapsedNS),
			}
			sr.weights, sr.spans, sr.cacheHit = d.W, d.Spans, d.Cached
			return nil
		case FrameError:
			var je JobError
			if err := DecodeBody(body, &je); err != nil {
				return err
			}
			return fmt.Errorf("distrib: worker failed shard %d: %s", je.Shard, je.Msg)
		default:
			return fmt.Errorf("distrib: unexpected frame type %d from worker", typ)
		}
	}
}
