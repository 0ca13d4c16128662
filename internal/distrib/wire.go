// Package distrib fans shard alignment out across processes: a
// coordinator ships its warm anchor-free count layer to each worker once
// (the seed, see seed.go), then serializes each partition.Part as a
// wire-format job of pool indices against that seed, dispatches it to
// workers over a pluggable transport (in-process loopback, stdio pipes to
// subprocesses, TCP), answers the workers' oracle queries, and reconciles
// the returned vote streams incrementally through the partition.Merger /
// multinet score-greedy union-find. The per-shard pipeline a worker runs
// is partition.PreparePart + Train on a fork of the seeded counter — the
// same code the in-process path runs on forks of its base counter — so a
// distributed run is property-tested identical to PartitionedAligner for
// the same seed and shard plan.
//
// # Wire format
//
// The protocol is a stream of length-prefixed, versioned, checksummed
// frames in both directions:
//
//	┌─────────────┬─────────┬──────────┬──────────────────┬─────────┐
//	│ length u32  │ magic   │ ver  typ │ payload          │ crc32c  │
//	│ big endian  │ 2 bytes │ 1B   1B  │ length − 8 bytes │ 4 bytes │
//	└─────────────┴─────────┴──────────┴──────────────────┴─────────┘
//
// Payloads come in one flavor: every frame type hand-rolls its body as a
// flat columnar layout over the internal/framing put/get primitives
// (varint scalars, packed float64 runs, struct-of-arrays columns; see
// codec.go and docs/WIRE.md for the field tables), and every decoder
// rejects trailing bytes. Equal payloads encode to equal bytes, a frame
// decodes independently of every other frame, so frames survive
// reordering across connections, and corrupt or foreign streams fail
// fast on the magic/version check instead of deep inside a decoder. A
// version bump is a wire-compatibility statement: readers reject frames
// of any other version (ErrVersionMismatch) rather than guess at field
// semantics. The CRC-32C trailer covers the type byte and payload: a
// byte flipped in transit is a detected ErrChecksum — the coordinator
// burns the connection and retries the shard — never silently different
// votes.
//
// There is one index space: every index in every frame — a job's pool
// and prelabels, a JobRef's label delta, queries, votes — is an ORIGINAL
// pair index, bounded by the seed's two node counts.
//
// The conversation is strictly request-driven: the coordinator sends
// Hello, negotiates the seed (SeedRef, then Seed on a miss), then one Job
// (or JobRef, see below) per shard; the worker answers with any number of
// Progress, Query (oracle round-trips, answered by Answer frames) and
// Votes frames, terminated by exactly one Done or Error frame.
//
// # Sticky sessions
//
// A multi-round session (active-learning retraining over a stable shard
// plan) avoids re-preparing unchanged shards: every Job carries a
// Fingerprint of its shard-stable content, a long-lived worker caches
// the prepared shard (forked counter, feature matrix) under that
// fingerprint, and later rounds send a JobRef — fingerprint plus the
// round's label delta — instead of the Job. The worker acknowledges with
// CacheAck: on a hit it re-runs training on the warm state immediately;
// on a miss (restarted worker, evicted entry, colliding fingerprint) the
// coordinator falls back to a full Job. See docs/WIRE.md for the
// complete frame catalog and session lifecycle.
package distrib

import (
	"fmt"
	"io"

	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/hetnet"
)

// Version is the wire protocol version. Bump it on any change to frame
// payload shapes; readers reject every other version.
//
// Version history:
//
//	1 — PR 3: Hello/Job/Votes/Progress/Query/Answer/Done/Error.
//	2 — PR 4: sticky sessions. Job gains Fingerprint and Prelabeled;
//	    JobRef and CacheAck frames added.
//	3 — PR 5: Done gains W, the shard's trained weight vector, so the
//	    coordinator can persist per-shard models in alignment
//	    snapshots.
//	4 — PR 6: fault tolerance. Every frame gains a CRC-32C trailer
//	    (corruption in transit becomes a detected, retryable transport
//	    failure instead of silently different votes); Cancel frame
//	    added so a coordinator can abandon a hedged or abandoned shard
//	    mid-stream.
//	5 — PR 7: columnar hot frames + warm-counter seed shipping. Job,
//	    JobRef, Votes and Done switch from gob to hand-rolled columnar
//	    bodies; Job gains SeedFP; SeedRef/Seed frames ship the
//	    coordinator's anchor-free count cache once per connection, so
//	    seeded jobs omit their networks and inverse maps entirely.
//	6 — PR 8: cross-process tracing. Job, JobRef and Seed grow a
//	    TraceID/SpanID columnar tail (zero = tracing off) so worker-side
//	    spans parent under the coordinator's per-attempt spans; Done
//	    grows a span column carrying the worker's prepare/train/votes
//	    spans back to the coordinator's trace file.
//	7 — PR 20: one job shape, one payload discipline. The self-contained
//	    (unseeded) Job leaves: no unseeded flag byte, no G1/G2 networks,
//	    no inverse user-map columns — every job names a seed and every
//	    index on the wire is an original pair index. The eight control
//	    frames (Hello, Progress, Query, Answer, CacheAck, Error, Cancel,
//	    SeedRef) switch from gob to columnar bodies like the rest.
//	8 — PR 25: the Seed is a counter's state, not a dataset. The body
//	    drops both networks (node-ID and link-index tables) and carries the
//	    anchor type's two node counts, the schema's relations and
//	    attribute types, and the oriented adjacency matrices the feature
//	    set traverses as bare edges, as entries like the counts; every
//	    entry names its endpoint node types.
const Version = 8

// maxFrameSize bounds a frame's declared length so a corrupt or hostile
// length prefix cannot OOM the reader. The seed carries the pair's whole
// anchor-free count layer; 1 GiB is far above any realistic one and far
// below pathology.
const maxFrameSize = 1 << 30

// codec is the distrib instance of the shared framing discipline: the
// 'A','I' magic rejects non-distrib streams, the version byte rides on
// every frame, and the frame cap guards the reader's allocations. The
// header layout (and its hostile-input handling) lives in
// internal/framing, shared with the snapshot artifact format.
var codec = framing.Codec{Magic: [2]byte{'A', 'I'}, Version: Version, MaxFrame: maxFrameSize, Checksum: true}

// FrameType tags a frame payload.
type FrameType uint8

const (
	// FrameHello opens a connection in each direction.
	FrameHello FrameType = iota + 1
	// FrameJob carries one shard job, coordinator → worker.
	FrameJob
	// FrameVotes carries a batch of pool-link votes, worker → coordinator.
	FrameVotes
	// FrameProgress reports a pipeline stage change, worker → coordinator.
	FrameProgress
	// FrameQuery asks the coordinator's oracle for a label.
	FrameQuery
	// FrameAnswer returns an oracle label, coordinator → worker.
	FrameAnswer
	// FrameDone completes a job with its audit report.
	FrameDone
	// FrameError aborts a job with a worker-side failure.
	FrameError
	// FrameJobRef re-runs a worker-cached shard with a label delta,
	// coordinator → worker (sessions only).
	FrameJobRef
	// FrameCacheAck answers a JobRef with the cache verdict, worker →
	// coordinator.
	FrameCacheAck
	// FrameCancel abandons an in-flight shard, coordinator → worker: the
	// losing side of a hedged dispatch, or a shard whose deadline fired.
	FrameCancel
	// FrameSeedRef offers the run's warm-counter seed to a freshly
	// dialed worker, coordinator → worker; answered by a CacheAck with
	// Shard −1.
	FrameSeedRef
	// FrameSeed ships the warm-counter seed body (schema, dimensions and
	// the anchor-free matrices), coordinator → worker, after a missed
	// SeedRef.
	FrameSeed
)

// ErrVersionMismatch is returned (wrapped, with the versions) when a
// frame of a different protocol version arrives. It is the shared
// framing sentinel, re-exported so callers can errors.Is against a
// distrib-local name.
var ErrVersionMismatch = framing.ErrVersionMismatch

// ErrChecksum is returned (wrapped) when a frame's CRC-32C trailer does
// not match its body — the stream was corrupted in transit. The
// connection cannot be trusted past the corrupt frame; the coordinator
// burns it and retries the shard on a fresh dial.
var ErrChecksum = framing.ErrChecksum

// Hello is the handshake payload. Role is informational ("coordinator",
// "worker") — the version check rides in the frame header.
type Hello struct {
	Role string
}

// Job is one shard job: the shard's pool as indices into the user spaces
// of the seed it names, plus the training configuration. It carries no
// network data — the worker resolves the warm counter and the index
// bounds from the seed its connection negotiated.
type Job struct {
	// Shard is the Part.Index — it offsets the training seed and tags
	// every frame the worker sends back.
	Shard int
	// AnchorType must match the seed's; a mismatch fails the job.
	AnchorType string
	// SeedFP names the warm-counter seed (shipped per connection via
	// SeedRef/Seed) the job's indices are relative to; the worker forks the
	// seeded counter. A job whose SeedFP is zero, or not installed on the
	// worker, is rejected.
	SeedFP uint64
	// TrainPos and Candidates are the shard pool.
	TrainPos   []hetnet.Anchor
	Candidates []hetnet.Anchor
	// Prelabeled carries oracle labels from earlier session rounds; the
	// worker trains them as fixed queried labels. Empty in every round-1
	// job.
	Prelabeled []WireLabel
	// Fingerprint identifies the shard-stable content (seed, pool,
	// training configuration — everything except Prelabeled, Budget and
	// Seed). Non-zero invites the worker to cache the prepared shard so a
	// later JobRef with the same fingerprint re-runs warm; zero disables
	// caching.
	Fingerprint uint64
	// Training configuration, mirroring partition.TrainOptions flattened
	// into wire-safe scalars.
	FeatureSet   string // "full", "paths", "extended"
	Strategy     string // "conflict", "random", "uncertainty"
	C            float64
	Threshold    float64
	HasThreshold bool
	Budget       int // this shard's slice
	BatchSize    int
	Exact        bool
	Seed         int64 // base seed; the worker applies the per-shard offset
	// TraceID/SpanID are the coordinator's trace context for this
	// dispatch attempt: a non-zero TraceID asks the worker to record
	// prepare/train/votes spans parented under SpanID and ship them back
	// on the Done frame. Zero (tracing off) costs two bytes on the wire
	// and nothing on the worker. Excluded from ComputeFingerprint like
	// every other per-attempt mutable.
	TraceID uint64
	SpanID  uint64
}

// WireLabel is one oracle-labeled link, in original pair indices like
// everything else on the wire.
type WireLabel struct {
	I, J  int32
	Label float64
}

// JobRef asks a worker to re-run a shard it already holds: the
// fingerprint names the cached prepared state, AddLabels is the label
// delta since the last run of that fingerprint on this connection, and
// Budget/Seed are this round's training knobs. Everything else — the
// pool, the forked counter, the training configuration — is resolved
// from the worker's cache, which is what makes a delta round cost bytes
// proportional to the new labels instead of the shard.
type JobRef struct {
	Shard       int
	Fingerprint uint64
	// AddLabels are the prelabels the cached shard has not seen yet, in
	// canonical (I, J) order.
	AddLabels []WireLabel
	// Budget is this round's query budget slice for the shard.
	Budget int
	// Seed is this round's base seed (the worker still applies the
	// per-shard offset, exactly as for a full Job).
	Seed int64
	// TraceID/SpanID carry the round's trace context, exactly as on Job.
	TraceID uint64
	SpanID  uint64
}

// CacheAck answers a JobRef before any pipeline output: Hit reports
// whether the worker holds the fingerprint (with a matching shard
// index). On a hit the job's frame stream follows immediately; on a miss
// the worker waits for a full Job re-ship of the same shard.
type CacheAck struct {
	Shard       int
	Fingerprint uint64
	Hit         bool
}

// Cancel tells the worker the coordinator no longer wants the named
// shard's stream: another (hedged) attempt already won, or the shard's
// deadline fired. Delivery is advisory — a worker deep in training
// without oracle round-trips only notices at its next read — so the
// coordinator follows it by closing the connection; the frame exists so
// a worker blocked waiting for an Answer aborts the job promptly (and a
// long-lived TCP worker returns to its serve loop) instead of dying on
// a closed stream mid-write.
type Cancel struct {
	Shard int
}

// Vote is one pool link's verdict in ORIGINAL pair indices — the wire
// form of partition.Vote.
type Vote struct {
	I, J    int32
	Label   float64
	Score   float64
	Queried bool
	Fixed   bool
}

// Votes is a batch of votes for one shard.
type Votes struct {
	Shard int
	Votes []Vote
}

// Progress reports a worker pipeline stage.
type Progress struct {
	Shard   int
	Stage   string // "counting", "features", "training", "voting"
	Queries int
}

// Query asks the coordinator's oracle to label a link (original
// indices).
type Query struct {
	Shard int
	Seq   uint64
	I, J  int32
}

// Answer returns an oracle label for the query with the same Seq.
type Answer struct {
	Seq   uint64
	Label float64
}

// Done completes a job; the fields mirror partition.PartReport, plus
// the shard's trained model.
type Done struct {
	Shard      int
	TrainPos   int
	Candidates int
	Budget     int
	Queries    int
	ElapsedNS  int64
	// W is the shard's trained feature weight vector (layout: the job's
	// feature set followed by the bias term). The coordinator records it
	// in the merged result's ShardWeights so a snapshot of a distributed
	// run can serve inductive rescoring, exactly like an in-process one.
	W []float64
	// Spans are the worker-side spans of this job's pipeline (prepare,
	// train, votes), recorded only when the request carried a non-zero
	// TraceID. Their Parent IDs are coordinator span IDs propagated on
	// the request frame, which is how a worker span in another process
	// nests under the coordinator's attempt span in one trace file.
	Spans []WireSpan
}

// WireSpan is one finished worker-side span riding a Done frame back to
// the coordinator. Times are unix nanoseconds — coordinator and worker
// share the host clock in every supported transport.
type WireSpan struct {
	ID, Parent     uint64
	Name           string
	StartNS, EndNS int64
}

// JobError aborts a job with a worker-side failure description.
type JobError struct {
	Shard int
	Msg   string
}

// Payload is a frame body. Every payload struct above (and WireSeed)
// implements it on its pointer, hand-rolling its layout in codec.go; the
// unexported methods keep the set closed, so a frame can only ever carry
// a body whose layout this package versions.
type Payload interface {
	appendBody(b []byte) []byte
	decodeBody(body []byte) error
}

// WriteFrame encodes payload as one length-prefixed frame.
func WriteFrame(w io.Writer, typ FrameType, payload Payload) error {
	if err := codec.WriteFrame(w, byte(typ), payload.appendBody(nil)); err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	return nil
}

// ReadFrame reads one frame header and returns its type plus the raw
// body for DecodeBody. io.EOF is returned untouched on a clean
// end-of-stream boundary. Hostile-input handling (length bounds,
// magic/version validation before any allocation, body draining on
// header errors) is the shared framing codec's.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	typ, body, err := codec.ReadFrame(r)
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("distrib: %w", err)
	}
	return FrameType(typ), body, nil
}

// DecodeBody decodes a frame body returned by ReadFrame into the
// payload struct matching its type. Decode into a zero value: the
// decoders assign every field but do not clear stale state.
func DecodeBody(body []byte, into Payload) error { return into.decodeBody(body) }

// ReadExpect reads one frame and requires the given type, decoding into
// `into`. An Error frame is surfaced as its message; anything else is a
// protocol violation.
func ReadExpect(r io.Reader, want FrameType, into Payload) error {
	typ, body, err := ReadFrame(r)
	if err != nil {
		return err
	}
	if typ == FrameError && want != FrameError {
		var je JobError
		if derr := DecodeBody(body, &je); derr == nil {
			return fmt.Errorf("distrib: remote error (shard %d): %s", je.Shard, je.Msg)
		}
	}
	if typ != want {
		return fmt.Errorf("distrib: unexpected frame type %d, want %d", typ, want)
	}
	return DecodeBody(body, into)
}
