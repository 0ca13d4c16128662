// Package activeiter is a from-scratch Go implementation of "Meta
// Diagram based Active Social Networks Alignment" (Ren, Aggarwal, Zhang —
// ICDE 2019): inferring the one-to-one anchor links connecting the shared
// users of two attributed heterogeneous social networks, using
// inter-network meta diagram features, PU learning with a cardinality
// constraint, and an active-learning query strategy.
//
// # Quick start
//
//	pair, _ := activeiter.GenerateDataset(activeiter.SmallDataset())
//	aligner, _ := activeiter.New(pair, activeiter.Options{Budget: 50})
//	train, test := pair.Anchors[:40], pair.Anchors[40:]
//	cands := append(test, negatives...)
//	res, _ := aligner.Align(train, cands, activeiter.NewTruthOracle(pair))
//	for _, a := range res.PredictedAnchors() { ... }
//
// The packages under internal/ hold the substrates: sparse and dense
// linear algebra, the heterogeneous network store, the meta diagram
// algebra and counting engine, cardinality-constrained matching, the SVM
// baseline, and the experiment harness that regenerates every table and
// figure of the paper (see cmd/experiments). There is one aligner —
// shard the pool into parts, prepare each part's features, train it,
// merge the parts' votes one-to-one — with one result type: New runs
// the parts on in-process forks of a long-lived counter (NewPartitioned
// is the same constructor), NewDistributed ships them to worker
// processes, and both share one round loop (Options.Rounds).
// Options.Partitions ≤ 1 is the whole pool as one part. A trained
// alignment persists as a serving artifact
// (BuildSnapshot/WriteSnapshot/OpenSnapshot) that cmd/alignd answers
// match/candidate/score queries from online. docs/ARCHITECTURE.md
// walks the whole design; docs/WIRE.md specifies the worker wire
// protocol; docs/SNAPSHOT.md the artifact format.
package activeiter

import (
	"fmt"
	"math"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/distrib"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
)

// Re-exported data model types. Aliases keep the internal packages as the
// single source of truth while giving users a public name.
type (
	// Network is an attributed heterogeneous social network.
	Network = hetnet.Network
	// AlignedPair couples two networks with ground-truth anchor links.
	AlignedPair = hetnet.AlignedPair
	// Anchor is a (user-in-network-1, user-in-network-2) index pair.
	Anchor = hetnet.Anchor
	// NodeType and LinkType name the heterogeneous categories.
	NodeType = hetnet.NodeType
	LinkType = hetnet.LinkType
	// Oracle answers anchor-link label queries during active learning.
	Oracle = active.Oracle
)

// Standard schema vocabulary, re-exported from the data model.
const (
	User      = hetnet.User
	Post      = hetnet.Post
	Word      = hetnet.Word
	Location  = hetnet.Location
	Timestamp = hetnet.Timestamp

	Follow   = hetnet.Follow
	Write    = hetnet.Write
	At       = hetnet.At
	Checkin  = hetnet.Checkin
	Contains = hetnet.Contains
)

// NewSocialNetwork returns an empty network pre-declared with the
// Foursquare/Twitter-style schema of the paper's Figure 2.
func NewSocialNetwork(name string) *Network { return hetnet.NewSocialNetwork(name) }

// NewAlignedPair couples two networks with an empty anchor set.
func NewAlignedPair(g1, g2 *Network) *AlignedPair { return hetnet.NewAlignedPair(g1, g2) }

// NewTruthOracle builds an oracle answering from the pair's ground-truth
// anchors — the stand-in for a human labeler in experiments.
func NewTruthOracle(pair *AlignedPair) Oracle { return active.NewTruthOracle(pair) }

// FeatureSet selects which meta diagram features the aligner extracts.
type FeatureSet int

const (
	// FullFeatures uses all 31 meta paths and meta diagrams (the MPMD
	// feature space of the paper).
	FullFeatures FeatureSet = iota
	// PathFeatures uses only the 6 meta paths (the MP feature space).
	PathFeatures
	// ExtendedFeatures adds the word attribute (P7 and its diagram
	// families, 58 features) — the paper's data model carries words but
	// its evaluation does not use them; enable this when your posts have
	// textual content.
	ExtendedFeatures
)

// StrategyKind selects the active query strategy.
type StrategyKind string

const (
	// StrategyConflict is the paper's conflict-aware false-negative
	// strategy (the default).
	StrategyConflict StrategyKind = distrib.StrategyConflict
	// StrategyRandom queries uniformly (the ActiveIter-Rand baseline).
	StrategyRandom StrategyKind = distrib.StrategyRandom
	// StrategyUncertainty queries the scores nearest the threshold.
	StrategyUncertainty StrategyKind = distrib.StrategyUncertainty
)

// Options configures an Aligner. The zero value is a usable default:
// full features, no active learning.
type Options struct {
	// Features selects the feature space; default FullFeatures.
	Features FeatureSet
	// Budget is the number of oracle label queries allowed (the paper's
	// b). Zero disables active learning (the Iter-MPMD setting).
	Budget int
	// BatchSize is the per-round query batch (the paper's k, default 5).
	BatchSize int
	// Strategy picks the query strategy; default StrategyConflict.
	Strategy StrategyKind
	// C is the ridge fit weight (default 1).
	C float64
	// Threshold is the link-selection cutoff; nil means the paper's 0.5.
	// An explicit zero (Ptr(0)) is honored as a real boundary. The active
	// uncertainty strategy queries around this same cutoff.
	Threshold *float64
	// ExactSelection swaps the greedy ½-approximation for the Hungarian
	// optimum — slower, for ablations.
	ExactSelection bool
	// Seed drives every random choice; fixed seed ⇒ identical runs.
	Seed int64
	// Partitions splits the candidate space into this many overlapping
	// shards; ≤ 1 aligns the whole pool as one part.
	Partitions int
	// Workers caps shard-execution concurrency: concurrent part
	// pipelines in-process, concurrent worker connections when
	// distributed. 0 means min(partitions, GOMAXPROCS).
	Workers int
	// Rounds splits the query budget across this many
	// retrain-after-labels rounds over one stable plan, each round's
	// oracle answers entering the next as fixed labels. In-process every
	// round re-runs the part pipelines; distributed, the rounds share one
	// sticky worker session — every round ships each shard's job to the
	// worker that ran it last, which prepares it in round 1 and
	// afterwards re-runs only training on the shard it holds warm. 0 and
	// 1 are the same run: one round, the single-shot dispatch.
	Rounds int
	// OracleConfig, when set, interposes a simulated labeler panel
	// between the training loop and the oracle passed to Align: every
	// query is replicated across OracleConfig.Replicas labelers drawn
	// from the configured pool (honest / noisy / adversarial /
	// colluding, all backed by the caller's oracle as ground truth) and
	// resolved by majority vote, with contradiction tracking and
	// per-labeler trust scores. Inspect the last run's ledger through
	// the aligner's Panel() accessor. Nil (the default) queries the
	// caller's oracle directly.
	OracleConfig *OracleConfig
}

// Ptr wraps a value for the pointer-typed option fields (e.g.
// Options{Threshold: activeiter.Ptr(0.7)}).
func Ptr[T any](v T) *T { return &v }

// validate rejects option values that would otherwise be silently
// misinterpreted downstream (a negative budget, for instance, skips
// core's oracle validation because only Budget > 0 is checked there).
func (o Options) validate() error {
	switch {
	case o.Budget < 0:
		return fmt.Errorf("activeiter: negative Budget %d (use 0 to disable active learning)", o.Budget)
	case o.BatchSize < 0:
		return fmt.Errorf("activeiter: negative BatchSize %d (use 0 for the paper's default of 5)", o.BatchSize)
	case o.C < 0 || math.IsNaN(o.C) || math.IsInf(o.C, 0):
		return fmt.Errorf("activeiter: invalid ridge weight C %v (use 0 for the default of 1)", o.C)
	case o.Partitions < 0:
		return fmt.Errorf("activeiter: negative Partitions %d (use 0 or 1 for monolithic alignment)", o.Partitions)
	case o.Workers < 0:
		return fmt.Errorf("activeiter: negative Workers %d (use 0 for the GOMAXPROCS default)", o.Workers)
	case o.Rounds < 0:
		return fmt.Errorf("activeiter: negative Rounds %d (use 0 or 1 for single-shot dispatch)", o.Rounds)
	}
	if o.Threshold != nil && (math.IsNaN(*o.Threshold) || math.IsInf(*o.Threshold, 0)) {
		return fmt.Errorf("activeiter: non-finite Threshold %v", *o.Threshold)
	}
	if o.OracleConfig != nil {
		if err := o.OracleConfig.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// trainConfig is the single Options→training mapping: the wire-safe
// configuration remote workers receive, and — resolved through
// distrib's name tables (resolve) — what every in-process pipeline
// trains on and what snapshot provenance records.
func (o Options) trainConfig() distrib.TrainConfig {
	cfg := distrib.TrainConfig{
		FeatureSet: distrib.FeaturesFull,
		Strategy:   string(o.Strategy),
		C:          o.C,
		Threshold:  o.Threshold,
		BatchSize:  o.BatchSize,
		Exact:      o.ExactSelection,
		Seed:       o.Seed,
	}
	switch o.Features {
	case PathFeatures:
		cfg.FeatureSet = distrib.FeaturesPaths
	case ExtendedFeatures:
		cfg.FeatureSet = distrib.FeaturesExtended
	}
	if cfg.Strategy == "" {
		cfg.Strategy = distrib.StrategyConflict
	}
	return cfg
}

// resolve validates the options and resolves trainConfig into the
// diagram library and training configuration the part pipelines run —
// the one place an unknown strategy is rejected.
func (o Options) resolve() (partition.TrainOptions, error) {
	if err := o.validate(); err != nil {
		return partition.TrainOptions{}, err
	}
	train, err := o.trainConfig().TrainOptions()
	if err != nil {
		// trainConfig only emits known feature-set names; the strategy is
		// the caller's string.
		return train, fmt.Errorf("activeiter: unknown strategy %q", o.Strategy)
	}
	train.Workers = o.Workers
	return train, nil
}

// Aligner runs meta diagram feature extraction and the ActiveIter
// training loop over one aligned pair. Create it once per pair; Align
// may be called repeatedly with different training folds. It is the
// sharded aligner NewPartitioned and NewDistributed also return.
type Aligner = shardedAligner

// New builds an aligner over the pair whose parts run in-process, on
// forks of one long-lived counter, so repeated folds reuse the
// attribute-only counts. Options.Partitions ≤ 1 aligns the whole pool
// as one part.
func New(pair *AlignedPair, opts Options) (*Aligner, error) { return newSharded(pair, opts, nil) }

// FeatureNames returns the feature vector layout (diagram IDs plus the
// trailing bias).
func (sa *shardedAligner) FeatureNames() []string { return sa.ext.Names() }

// FeatureVector returns the proximity feature vector of the candidate
// link (i, j) under the anchors of the last Align or CandidatePairs
// call — the pair's full anchor set before the first.
func (sa *shardedAligner) FeatureVector(i, j int) ([]float64, error) {
	out := make([]float64, sa.ext.Dim())
	if err := sa.ext.FeatureVector(i, j, out); err != nil {
		return nil, err
	}
	return out, nil
}

// CandidatePairs proposes unlabeled candidate links by meta diagram
// evidence: every pair connected by at least one diagram instance is
// scored by total proximity and each user keeps its perUser best
// counterparts. Use this instead of sampling when aligning real
// networks without ground-truth negatives — the result feeds directly
// into Align as the candidate pool. trainPos are the known anchors (the
// paths may traverse them, and they are excluded from the proposals).
func (sa *shardedAligner) CandidatePairs(trainPos []Anchor, perUser int) ([]Anchor, error) {
	sa.restrict(trainPos)
	return sa.ext.Candidates(perUser)
}

// restrict points FeatureVector at a fresh fork of the base counter
// restricted to anchors, counted on first use — so no anchor-dependent
// count is ever read from the base itself.
func (sa *shardedAligner) restrict(anchors []Anchor) {
	fork := sa.base.Fork()
	fork.SetAnchors(anchors)
	sa.ext = metadiag.NewExtractor(fork, sa.train.Features, true)
}

// Predictor is an inductive scorer over feature vectors, detached from
// the training pool: use it to rank user pairs that did not exist at
// training time (PartitionedResult.Predictor).
type Predictor = core.Predictor
