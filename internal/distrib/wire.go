// Package distrib fans shard alignment out across processes: a
// coordinator ships its warm anchor-free count layer to each worker once
// (the seed, see seed.go), then serializes each partition.Part as a
// wire-format job of pool indices against that seed, dispatches it to
// workers over a pluggable transport (in-process loopback, stdio pipes to
// subprocesses, TCP), answers the workers' oracle queries, and reconciles
// the returned vote streams incrementally through partition.Merger, whose
// Finish runs the trainer's one-to-one greedy (internal/matching). The per-shard pipeline a worker runs
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
// and prelabels, queries, votes — is an ORIGINAL pair index, bounded by
// the seed's two node counts.
//
// The conversation is strictly request-driven: the coordinator's Hello
// offers the run's seed, the worker's Hello names the seed it holds for
// the connection (the Seed body ships, and a second worker Hello confirms
// it, only on a miss), then the coordinator sends one Job per shard; the
// worker answers with any number of Query (oracle round-trips, answered
// by Answer frames) and Votes frames, terminated by exactly one Done or
// Error frame.
//
// # Sticky sessions
//
// A multi-round session (active-learning retraining over a stable shard
// plan) avoids re-preparing unchanged shards: every round ships each
// shard its full Job, routed back to the connection that ran it last,
// and a worker that holds that shard prepared (forked counter, feature
// matrix) for an equal pool and configuration re-runs only training on
// it. Anything else — a drifted pool, an evicted entry, a new
// connection — is prepared cold. Done reports which it was. See
// docs/WIRE.md for the complete frame catalog and session lifecycle.
package distrib

import (
	"fmt"
	"io"

	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/hetnet"
)

// Version is the wire protocol version. Bump it on any change to frame
// payload shapes (or the set of frame types); readers reject every other
// version. docs/WIRE.md keeps the version history: 13 ships a Seed
// count held as a one-byte block as its cells, after a layout byte every
// seed segment carries, so a worker installs the layout the exporter held.
const Version = 13

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
	// FrameHello opens a connection in each direction and carries its
	// seed handshake.
	FrameHello FrameType = iota + 1
	// FrameJob carries one shard job, coordinator → worker.
	FrameJob
	// FrameVotes carries a batch of pool-link votes, worker → coordinator.
	FrameVotes
	// FrameQuery asks the coordinator's oracle for a label.
	FrameQuery
	// FrameAnswer returns an oracle label, coordinator → worker.
	FrameAnswer
	// FrameDone completes a job with its audit report.
	FrameDone
	// FrameError aborts a job with a worker-side failure.
	FrameError
	// Type 8 was the Cancel frame (wire v4–v10); retired, never reused.
	_
	// FrameSeed ships the warm-counter seed body (schema, dimensions and
	// the anchor-free matrices), coordinator → worker, when the worker's
	// Hello holds no seed for the offer.
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

// Hello is the handshake payload. The coordinator's Hello offers the
// run's warm-counter seed by fingerprint; the worker's answers with the
// fingerprint it holds for the connection — the offered one, or 0 when
// the Seed body must ship — and a shipped Seed is confirmed by a second
// worker Hello naming it. Role is informational ("coordinator",
// "worker") — the version check rides in the frame header.
type Hello struct {
	Role   string
	SeedFP uint64
}

// Job is one shard job: the shard's pool as indices into the user spaces
// of the connection's seed, plus the training configuration. It carries
// no network data and names no seed — the worker resolves the warm
// counter and the index bounds from the seed its connection pinned at the
// handshake.
type Job struct {
	// Shard is the Part.Index — it offsets the training seed and tags
	// every frame the worker sends back.
	Shard int
	// AnchorType must match the seed's; a mismatch fails the job.
	AnchorType string
	// TrainPos and Candidates are the shard pool.
	TrainPos   []hetnet.Anchor
	Candidates []hetnet.Anchor
	// Prelabeled carries every oracle label of the session's earlier
	// rounds; the worker trains them as fixed queried labels. Empty in
	// every round-1 job.
	Prelabeled []WireLabel
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
	// and nothing on the worker.
	TraceID uint64
	SpanID  uint64
}

// WireLabel is one oracle-labeled link, in original pair indices like
// everything else on the wire.
type WireLabel struct {
	I, J  int32
	Label float64
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
	// Cached reports that the worker re-ran the job on a prepared shard it
	// held from an earlier job with an equal pool and configuration,
	// instead of counting and filling it cold.
	Cached bool
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
