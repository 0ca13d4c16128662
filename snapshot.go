package activeiter

import (
	"fmt"
	"math"
	"time"

	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/serve"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// Snapshot is a trained alignment persisted as a versioned binary
// artifact: provenance (dataset fingerprints, user ID tables), the
// schema notation set, the trained feature weights, the reconciled
// one-to-one matching, per-user top-k ranked candidates, the full
// candidate pool with the oracle audit, and the queried-label log. It
// is the offline→online bridge: `cmd/alignd` serves match/candidate/
// score queries straight from one. See docs/SNAPSHOT.md for the
// artifact layout and version rules.
type Snapshot = snapshot.Snapshot

// ServeIndex is a read-optimized, concurrency-safe in-memory index over
// a snapshot — the structure alignd serves from. It satisfies
// AlignmentResult, so EvaluateAlignment scores a loaded snapshot
// exactly like the live result it was built from.
type ServeIndex = serve.Index

// ErrSnapshotVersionMismatch reports an artifact of a different format
// version (use errors.Is).
var ErrSnapshotVersionMismatch = snapshot.ErrVersionMismatch

// Facade labels recorded in a snapshot's provenance header.
const (
	SnapshotMonolithic  = "monolithic"
	SnapshotPartitioned = "partitioned"
	SnapshotDistributed = "distributed"
)

// BuildSnapshot freezes a completed alignment for serving. It accepts
// the result of any facade — *Result from Aligner, *PartitionedResult
// from PartitionedAligner or DistributedAligner — together with the
// pair it was trained on and the Options that trained it (the source of
// the recorded notation set and training configuration). facade is the
// provenance label (SnapshotMonolithic, SnapshotPartitioned,
// SnapshotDistributed); empty derives it from the result type, with
// sharded results labeled "partitioned".
func BuildSnapshot(facade string, pair *AlignedPair, res AlignmentResult, opts Options) (*Snapshot, error) {
	if pair == nil {
		return nil, fmt.Errorf("activeiter: nil pair")
	}
	train, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	cfg := opts.trainConfig()
	meta := snapshot.Meta{
		CreatedUnix: time.Now().Unix(),
		// The layout the persisted weight vectors are parallel to: what
		// Aligner.FeatureNames() reports (Names never reads the counter).
		Notation:   metadiag.NewExtractor(nil, train.Features, true).Names(),
		Features:   cfg.FeatureSet,
		Strategy:   cfg.Strategy,
		Threshold:  0.5, // the paper's cutoff unless Options overrides it
		Seed:       opts.Seed,
		Budget:     opts.Budget,
		BatchSize:  opts.BatchSize,
		Partitions: opts.Partitions,
		Rounds:     opts.Rounds,
	}
	if opts.Threshold != nil {
		meta.Threshold = *opts.Threshold
	}

	var model snapshot.Model
	var pool []snapshot.PoolLink
	var matches []snapshot.Match
	var labels []snapshot.QueriedLabel

	switch r := res.(type) {
	case *Result:
		if facade == "" {
			facade = SnapshotMonolithic
		}
		if facade != SnapshotMonolithic {
			return nil, fmt.Errorf("activeiter: facade %q cannot produce a monolithic *Result", facade)
		}
		inner := r.Raw()
		model.W = append([]float64(nil), inner.W...)
		for idx, l := range r.links {
			score, label := inner.Scores[idx], r.labelAt(idx)
			pool = append(pool, snapshot.PoolLink{
				I: int32(l.I), J: int32(l.J),
				Label:    label,
				Score:    score,
				HasScore: !math.IsNaN(score),
				Queried:  inner.WasQueried(l.I, l.J),
			})
			if label == 1 {
				matches = append(matches, snapshot.Match{
					I: int32(l.I), J: int32(l.J),
					Score: score, HasScore: !math.IsNaN(score),
				})
			}
		}
		for _, q := range inner.Queried {
			labels = append(labels, snapshot.QueriedLabel{I: int32(q.Link.I), J: int32(q.Link.J), Label: q.Label})
		}
	case *PartitionedResult:
		if facade == "" {
			facade = SnapshotPartitioned
		}
		if facade != SnapshotPartitioned && facade != SnapshotDistributed {
			return nil, fmt.Errorf("activeiter: facade %q cannot produce a sharded *PartitionedResult", facade)
		}
		for shard, w := range r.ShardWeights {
			if len(w) == 0 {
				return nil, fmt.Errorf("activeiter: shard %d carries no trained weights (result predates the weight plumbing?)", shard)
			}
			model.Shards = append(model.Shards, snapshot.ShardModel{Shard: shard, W: append([]float64(nil), w...)})
		}
		for _, e := range r.Entries() {
			pool = append(pool, snapshot.PoolLink{
				I: int32(e.Link.I), J: int32(e.Link.J),
				Label: e.Label, Score: e.Score, HasScore: e.HasScore,
				Queried: e.Queried,
			})
		}
		for _, a := range r.PredictedAnchors() {
			score, hasScore := r.Score(a.I, a.J)
			matches = append(matches, snapshot.Match{I: int32(a.I), J: int32(a.J), Score: score, HasScore: hasScore})
		}
		for _, l := range r.QueriedLabels() {
			labels = append(labels, snapshot.QueriedLabel{I: int32(l.Link.I), J: int32(l.Link.J), Label: l.Label})
		}
	default:
		return nil, fmt.Errorf("activeiter: cannot snapshot a %T (want *Result or *PartitionedResult)", res)
	}
	meta.Facade = facade
	return snapshot.Build(pair, meta, model, pool, matches, labels, snapshot.DefaultTopK)
}

// WriteSnapshot persists the artifact to path (atomic rename, so a
// serving process reloading the same path never reads half a file).
func WriteSnapshot(s *Snapshot, path string) error { return s.WriteFile(path) }

// OpenSnapshot reads and validates an artifact written by
// WriteSnapshot. Version-mismatched artifacts fail with
// ErrSnapshotVersionMismatch; corrupt or truncated ones with explicit
// errors.
func OpenSnapshot(path string) (*Snapshot, error) { return snapshot.OpenFile(path) }

// NewServeIndex builds the serving index from a snapshot.
func NewServeIndex(s *Snapshot) (*ServeIndex, error) { return serve.NewIndex(s) }
