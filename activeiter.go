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
// figure of the paper (see cmd/experiments). There is one alignment
// pipeline — prepare a part's features, train it, reconcile — under
// three constructors: New runs the whole pool as a single part on a
// long-lived counter, NewPartitioned shards it across in-process forks,
// and NewDistributed ships the same shards to worker processes; the two
// sharded constructors return one type and share one multi-round driver
// (Options.Rounds). A trained alignment persists as a serving artifact
// (BuildSnapshot/WriteSnapshot/OpenSnapshot) that cmd/alignd answers
// match/candidate/score queries from online. docs/ARCHITECTURE.md
// walks the whole design; docs/WIRE.md specifies the worker wire
// protocol; docs/SNAPSHOT.md the artifact format.
package activeiter

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

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
	// shards under NewPartitioned and NewDistributed; ≤ 1 is a single
	// shard. New always aligns the whole pool as one part.
	Partitions int
	// Workers caps shard-execution concurrency under the sharded
	// constructors: concurrent part pipelines in-process, concurrent
	// worker connections when distributed. 0 means
	// min(partitions, GOMAXPROCS).
	Workers int
	// Rounds lifts the active loop to the sharded driver: the query
	// budget splits across this many retrain-after-labels rounds over
	// one stable plan, each round's oracle answers entering the next as
	// fixed labels. In-process every round re-runs the part pipelines;
	// distributed, the rounds share one sticky worker session — every
	// round ships each shard's job to the worker that ran it last, which
	// prepares it in round 1 and afterwards re-runs only training on the
	// shard it holds warm. 0 and 1 are the same run: one round, the
	// single-shot dispatch.
	Rounds int
	// ShardRetries (DistributedAligner only) is how many times a failed
	// shard is re-dispatched on a fresh connection — with capped
	// exponential backoff — before the shard degrades to the in-process
	// fallback. 0 means the default (2); negative disables retries.
	ShardRetries int
	// ShardTimeout (DistributedAligner only) bounds one shard attempt
	// end to end; a worker hung past it converts into a retryable
	// failure. 0 means the default (2 minutes); negative disables
	// per-shard deadlines.
	ShardTimeout time.Duration
	// HedgeAfter (DistributedAligner only), when positive, enables
	// straggler hedging: a shard in flight longer than
	// max(HedgeAfter, 2×P90 of completed shards) is raced on a second
	// connection and the first finish wins, in every round of a
	// multi-round run too. Zero disables hedging.
	HedgeAfter time.Duration
	// NoFallback (DistributedAligner only) disables graceful
	// degradation: by default a shard that exhausts its transport
	// retries runs in-process over a private loopback worker instead of
	// aborting the run (see DistributedMetrics.Fallbacks).
	NoFallback bool
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
	case o.HedgeAfter < 0:
		return fmt.Errorf("activeiter: negative HedgeAfter %v (use 0 to disable hedging)", o.HedgeAfter)
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
// may be called repeatedly with different training folds.
type Aligner struct {
	counter   *metadiag.Counter
	extractor *metadiag.Extractor
	opts      Options
	train     partition.TrainOptions // opts, resolved
	panel     *OraclePanel
}

// New builds an aligner over the pair.
func New(pair *AlignedPair, opts Options) (*Aligner, error) {
	if pair == nil {
		return nil, errors.New("activeiter: nil pair")
	}
	train, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	counter, err := metadiag.NewCounter(pair)
	if err != nil {
		return nil, err
	}
	return &Aligner{
		counter:   counter,
		extractor: metadiag.NewExtractor(counter, train.Features, true),
		opts:      opts,
		train:     train,
	}, nil
}

// FeatureNames returns the feature vector layout (diagram IDs plus the
// trailing bias).
func (a *Aligner) FeatureNames() []string { return a.extractor.Names() }

// FeatureVector returns the proximity feature vector of the candidate
// link (i, j) under the current training anchors.
func (a *Aligner) FeatureVector(i, j int) ([]float64, error) {
	out := make([]float64, a.extractor.Dim())
	if err := a.extractor.FeatureVector(i, j, out); err != nil {
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
func (a *Aligner) CandidatePairs(trainPos []Anchor, perUser int) ([]Anchor, error) {
	a.counter.SetAnchors(trainPos)
	if err := a.extractor.Recompute(); err != nil {
		return nil, err
	}
	return a.counter.Candidates(a.train.Features, perUser)
}

// Result is a completed alignment run.
type Result struct {
	inner *core.Result
	links []Anchor
	// lost holds the fixed positives that end 0 under the one-to-one
	// rule (see reconcileFixed); nil when there are none.
	lost map[int64]bool
}

// reconcileFixed applies the sharded merge's rule (partition.Merger) to
// the fixed positives of a run — training anchors and oracle YES answers,
// which core.Train fixes at 1 whatever their endpoints, so a labeler
// panel that contradicts itself can fix two links of one user. In (I, J)
// order each keeps its 1 unless an earlier one that kept its 1 shares an
// endpoint. Inferred positives never take a fixed positive's endpoint, so
// these few links are all that needs reconciling. It returns the losers.
func reconcileFixed(res *core.Result, links []Anchor, trainPos int) map[int64]bool {
	var fixed []Anchor
	for idx, l := range links {
		if res.Y[idx] == 1 && (idx < trainPos || res.QueriedAt(idx)) {
			fixed = append(fixed, l)
		}
	}
	slices.SortFunc(fixed, func(a, b Anchor) int { return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J)) })
	var lost map[int64]bool
	keptI, keptJ := make(map[int]bool, len(fixed)), make(map[int]bool, len(fixed))
	for _, l := range fixed {
		if keptI[l.I] || keptJ[l.J] {
			if lost == nil {
				lost = make(map[int64]bool)
			}
			lost[hetnet.Key(l.I, l.J)] = true
			continue
		}
		keptI[l.I], keptJ[l.J] = true, true
	}
	return lost
}

// labelAt is the final label of the pool link at idx.
func (r *Result) labelAt(idx int) float64 {
	if l := r.links[idx]; r.lost[hetnet.Key(l.I, l.J)] {
		return 0
	}
	return r.inner.Y[idx]
}

// PredictedAnchors returns the links inferred (or queried) positive —
// one-to-one, as a sharded run's.
func (r *Result) PredictedAnchors() []Anchor {
	var out []Anchor
	for idx, l := range r.links {
		if r.labelAt(idx) == 1 {
			out = append(out, l)
		}
	}
	return out
}

// Label returns the final label of candidate (i, j) and whether it was
// part of the pool.
func (r *Result) Label(i, j int) (float64, bool) {
	l, ok := r.inner.LabelOf(i, j)
	if r.lost[hetnet.Key(i, j)] {
		l = 0
	}
	return l, ok
}

// WasQueried reports whether (i, j) was labeled by the oracle.
func (r *Result) WasQueried(i, j int) bool { return r.inner.WasQueried(i, j) }

// QueryCount returns the oracle queries spent.
func (r *Result) QueryCount() int { return r.inner.QueryCount() }

// ConvergenceTrace returns Δy per internal iteration of the first
// optimization round (the series in the paper's Figure 3).
func (r *Result) ConvergenceTrace() []float64 { return r.inner.FirstRoundDeltas() }

// Weights returns the learned feature weights (aligned with
// Aligner.FeatureNames).
func (r *Result) Weights() []float64 { return r.inner.W }

// Raw exposes the internal training result for advanced inspection.
func (r *Result) Raw() *core.Result { return r.inner }

// Predictor is an inductive scorer over feature vectors, detached from
// the training pool: use it to rank user pairs that did not exist at
// training time.
type Predictor = core.Predictor

// Predictor builds an inductive scorer from the trained weights.
// threshold ≤ 0 uses the paper's ½.
func (r *Result) Predictor(threshold float64) (*Predictor, error) {
	return core.NewPredictor(r.inner, threshold)
}

// Align trains on the labeled positive anchors trainPos and infers
// labels for every candidate link. Candidates must contain the unlabeled
// pool (test positives and sampled negatives); trainPos links are added
// to the pool automatically. The oracle may be nil when Budget is 0.
func (a *Aligner) Align(trainPos []Anchor, candidates []Anchor, oracle Oracle) (*Result, error) {
	return a.AlignPrelabeled(trainPos, candidates, oracle, nil)
}

// AlignPrelabeled is Align with confidence-weighted labels from an
// earlier panel run fixed into the pool before training: each weighted
// label enters the problem the way an in-run oracle answer would
// (fixed for the whole run, excluded from query selection and from
// this run's budget), carrying WeightedLabel.Value() — the
// trust-weighted soft label — as its target. Links absent from
// candidates are added to the pool; links already in trainPos keep
// their ground-truth status.
//
// The whole pool runs as one part (index 0, the full budget) through
// the prepare and train halves every shard runs, on the aligner's
// long-lived counter and extractor so repeated folds reuse the
// attribute-only counts.
func (a *Aligner) AlignPrelabeled(trainPos, candidates []Anchor, oracle Oracle, pre []WeightedLabel) (*Result, error) {
	if len(trainPos) == 0 {
		return nil, core.ErrNoPositives
	}
	oracle, panel, err := a.opts.wrapOracle(oracle)
	if err != nil {
		return nil, err
	}
	a.panel = panel
	part := &partition.Part{
		TrainPos: trainPos,
		// Prelabeled links absent from candidates join the pool behind
		// them (the part pipeline dedups the rest); the cap keeps the
		// appends off the caller's array.
		Candidates: candidates[:len(candidates):len(candidates)],
		Budget:     a.opts.Budget,
		Prelabeled: prelabels(trainPos, pre),
	}
	for _, l := range part.Prelabeled {
		part.Candidates = append(part.Candidates, l.Link)
	}
	// The meta paths may only traverse *known* anchors: restrict the
	// counter to the training positives before features are recomputed.
	a.counter.SetAnchors(trainPos)
	prep, err := partition.PrepareWith(a.extractor, part)
	if err != nil {
		return nil, err
	}
	res, err := prep.Train(part, a.train.Core, oracle)
	if err != nil {
		return nil, err
	}
	return &Result{inner: res, links: prep.Links, lost: reconcileFixed(res, prep.Links, len(part.TrainPos))}, nil
}
