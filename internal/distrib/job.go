package distrib

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/schema"
)

// Feature set and strategy names carried on the wire. They mirror the
// facade's FeatureSet/StrategyKind vocabulary; the worker resolves them
// locally because neither schema.Named nor active.Strategy is
// serializable.
const (
	FeaturesFull     = "full"
	FeaturesPaths    = "paths"
	FeaturesExtended = "extended"

	StrategyConflict    = "conflict"
	StrategyRandom      = "random"
	StrategyUncertainty = "uncertainty"
)

// ResolveFeatures maps a wire feature-set name to the diagram library.
// The empty name means FeaturesFull.
func ResolveFeatures(name string) ([]schema.Named, error) {
	switch name {
	case "", FeaturesFull:
		return schema.StandardLibrary().All(), nil
	case FeaturesPaths:
		return schema.StandardLibrary().PathsOnly(), nil
	case FeaturesExtended:
		return schema.ExtendedLibrary().All(), nil
	default:
		return nil, fmt.Errorf("distrib: unknown feature set %q", name)
	}
}

// ResolveStrategy maps a wire strategy name to a query strategy. The
// empty name means conflict (the paper's default).
func ResolveStrategy(name string) (active.Strategy, error) {
	switch name {
	case "", StrategyConflict:
		return active.Conflict{}, nil
	case StrategyRandom:
		return active.Random{}, nil
	case StrategyUncertainty:
		return active.Uncertainty{}, nil
	default:
		return nil, fmt.Errorf("distrib: unknown strategy %q", name)
	}
}

// TrainConfig is the wire-safe training configuration shared by every
// job of one run — partition.TrainOptions flattened into serializable
// scalars.
type TrainConfig struct {
	// FeatureSet selects the diagram library ("full", "paths",
	// "extended"; empty = full).
	FeatureSet string
	// Strategy selects the query strategy ("conflict", "random",
	// "uncertainty"; empty = conflict).
	Strategy string
	// C is the ridge fit weight (0 = default 1).
	C float64
	// Threshold is the selection cutoff; nil = the paper's ½.
	Threshold *float64
	// BatchSize is the per-round query batch (0 = default 5).
	BatchSize int
	// Exact swaps greedy selection for the Hungarian optimum.
	Exact bool
	// Seed is the base seed; each shard offsets it by its index exactly
	// like the in-process pipeline.
	Seed int64
}

// TrainOptions resolves the wire-safe configuration into the one the
// shard pipeline runs on — the single place a feature-set or strategy
// name becomes a diagram library or an active.Strategy, for in-process
// forks and remote workers alike. Core.Budget stays zero: every part
// trains on its own plan-assigned slice.
func (c TrainConfig) TrainOptions() (partition.TrainOptions, error) {
	feats, err := ResolveFeatures(c.FeatureSet)
	if err != nil {
		return partition.TrainOptions{}, err
	}
	strategy, err := ResolveStrategy(c.Strategy)
	if err != nil {
		return partition.TrainOptions{}, err
	}
	return partition.TrainOptions{Features: feats, Core: core.Config{
		C:              c.C,
		Threshold:      c.Threshold,
		BatchSize:      c.BatchSize,
		Strategy:       strategy,
		ExactSelection: c.Exact,
		Seed:           c.Seed,
	}}, nil
}

// NewJob packages a plan part as a wire job: the part's pool, budget and
// prelabels as they stand, in original pair indices.
func NewJob(pair *hetnet.AlignedPair, part *partition.Part, cfg TrainConfig) *Job {
	j := &Job{
		Shard:      part.Index,
		AnchorType: string(pair.AnchorType),
		TrainPos:   part.TrainPos,
		Candidates: part.Candidates,
		Prelabeled: WireLabels(part.Prelabeled),
		Budget:     part.Budget,
	}
	return j.setTrain(cfg)
}

// part validates the job against the connection's seed — its anchor
// type, and every index against the seed's two node counts — and builds
// the plan part the pipeline trains.
func (j *Job) part(seed *seedEntry) (*partition.Part, error) {
	if j.AnchorType != "" && j.AnchorType != seed.anchorType {
		return nil, fmt.Errorf("distrib: job shard %d anchor type %q, seed has %q", j.Shard, j.AnchorType, seed.anchorType)
	}
	n1, n2 := seed.n1, seed.n2
	for _, a := range j.TrainPos {
		if a.I < 0 || a.I >= n1 || a.J < 0 || a.J >= n2 {
			return nil, fmt.Errorf("distrib: job shard %d: anchor (%d,%d) out of range", j.Shard, a.I, a.J)
		}
	}
	for _, c := range j.Candidates {
		if c.I < 0 || c.I >= n1 || c.J < 0 || c.J >= n2 {
			return nil, fmt.Errorf("distrib: job shard %d: candidate (%d,%d) out of range", j.Shard, c.I, c.J)
		}
	}
	for _, l := range j.Prelabeled {
		if l.I < 0 || int(l.I) >= n1 || l.J < 0 || int(l.J) >= n2 {
			return nil, fmt.Errorf("distrib: job shard %d: prelabel (%d,%d) out of range", j.Shard, l.I, l.J)
		}
	}
	return &partition.Part{
		Index:      j.Shard,
		TrainPos:   j.TrainPos,
		Candidates: j.Candidates,
		Budget:     j.Budget,
		Prelabeled: partLabels(j.Prelabeled),
	}, nil
}

// setTrain flattens the run's training configuration onto the job.
func (j *Job) setTrain(cfg TrainConfig) *Job {
	j.FeatureSet, j.Strategy = cfg.FeatureSet, cfg.Strategy
	j.C, j.BatchSize, j.Exact, j.Seed = cfg.C, cfg.BatchSize, cfg.Exact, cfg.Seed
	if cfg.Threshold != nil {
		j.Threshold, j.HasThreshold = *cfg.Threshold, true
	}
	return j
}

// trainConfig is setTrain's inverse: the configuration the worker
// resolves (TrainOptions) exactly as the in-process executor does.
func (j *Job) trainConfig() TrainConfig {
	cfg := TrainConfig{
		FeatureSet: j.FeatureSet, Strategy: j.Strategy,
		C: j.C, BatchSize: j.BatchSize, Exact: j.Exact, Seed: j.Seed,
	}
	if j.HasThreshold {
		cfg.Threshold = &j.Threshold
	}
	return cfg
}

// WireLabels converts partition labels to their wire form.
func WireLabels(labels []partition.LabeledLink) []WireLabel {
	if len(labels) == 0 {
		return nil
	}
	out := make([]WireLabel, len(labels))
	for k, l := range labels {
		out[k] = WireLabel{I: int32(l.Link.I), J: int32(l.Link.J), Label: l.Label}
	}
	return out
}

// partLabels is the inverse of WireLabels.
func partLabels(labels []WireLabel) []partition.LabeledLink {
	if len(labels) == 0 {
		return nil
	}
	out := make([]partition.LabeledLink, len(labels))
	for k, l := range labels {
		out[k] = partition.LabeledLink{Link: hetnet.Anchor{I: int(l.I), J: int(l.J)}, Label: l.Label}
	}
	return out
}

// shape is the job with its per-round fields cleared — prelabels,
// budget, seed and trace context — which leaves what a prepared shard is
// a function of besides the connection's seed: the shard, the pool and
// the training configuration. A field added to Job is part of the shape
// unless it is cleared here.
func (j *Job) shape() Job {
	s := *j
	s.Prelabeled, s.Budget, s.Seed, s.TraceID, s.SpanID = nil, 0, 0, 0, 0
	return s
}
