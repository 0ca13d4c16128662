package partition

import (
	"math"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/multinet"
)

// Vote is one shard pipeline's verdict on one pool link — the unit the
// global merge decision works on. Votes carry original pair user
// indices, from every executor.
type Vote struct {
	Link    hetnet.Anchor
	Label   float64
	Score   float64
	Queried bool // oracle-labeled in that shard
	Fixed   bool // training anchor (ground-truth positive)
}

// Merger folds per-shard votes into one globally one-to-one label
// assignment, incrementally: Add updates order-independent state (best
// score per link, queried/fixed flags, oracle-negative overrules) as
// votes stream in — from in-process pipelines or from remote workers —
// and Finish resolves the accumulated positives through multinet's
// score-greedy union-find. The outcome is identical for any Add order
// of the same vote multiset.
//
// Ground truth outranks inference in both directions: training anchors
// and queried positives enter the reconciliation at +Inf score so they
// always win, while a link the oracle answered NEGATIVE in any shard
// never enters at all — an overlapping shard that merely inferred it
// positive must not overrule a paid-for oracle answer. Remaining
// inferred positives compete at their best per-shard raw score;
// conflicting inferred links across shard borders lose to the
// higher-scored side and are counted in Result.Rejected.
//
// A Merger is single-use and not safe for concurrent use; serialize
// Add calls externally.
type Merger struct {
	labels      map[int64]float64
	scores      map[int64]float64
	queried     map[int64]bool
	queriedNeg  map[int64]bool
	queriedLink map[int64]LabeledLink
	posScore    map[int64]float64
	posLink     map[int64]hetnet.Anchor
}

// NewMerger returns an empty vote merger.
func NewMerger() *Merger {
	return &Merger{
		labels:      make(map[int64]float64),
		scores:      make(map[int64]float64),
		queried:     make(map[int64]bool),
		queriedNeg:  make(map[int64]bool),
		queriedLink: make(map[int64]LabeledLink),
		posScore:    make(map[int64]float64),
		posLink:     make(map[int64]hetnet.Anchor),
	}
}

// Add folds one vote into the merge state.
func (m *Merger) Add(v Vote) {
	key := hetnet.Key(v.Link.I, v.Link.J)
	if _, ok := m.labels[key]; !ok {
		m.labels[key] = 0
	}
	if !math.IsNaN(v.Score) {
		if old, ok := m.scores[key]; !ok || v.Score > old {
			m.scores[key] = v.Score
		}
	}
	if v.Queried {
		m.queried[key] = true
		m.queriedLink[key] = LabeledLink{Link: v.Link, Label: v.Label}
		if v.Label == 0 {
			m.queriedNeg[key] = true
		}
		if v.Label != 1 {
			// Only a YES goes through reconciliation; any other answer — a
			// NO, or an earlier panel's soft label fixed as a prelabel — is
			// the link's final label as it stands.
			m.labels[key] = v.Label
		}
	}
	if v.Label == 1 {
		score := v.Score
		if v.Fixed || v.Queried {
			score = math.Inf(1)
		} else if math.IsNaN(score) {
			// A NaN-scored inferred positive still counts as a positive
			// vote, but NaN compares false both ways — it would win or
			// lose the max below depending on ARRIVAL order, and shards
			// commit in nondeterministic completion order. Pin it to the
			// bottom of the competition instead: deterministic, and safely
			// ordered by the reconciler's sort.
			score = math.Inf(-1)
		}
		if old, ok := m.posScore[key]; !ok || score > old {
			m.posScore[key] = score
			m.posLink[key] = v.Link
		}
	}
}

// Finish reconciles the accumulated votes and returns the merged
// result. Reports and Elapsed are left for the caller to fill.
func (m *Merger) Finish() *Result {
	rec := multinet.NewReconciler()
	for key, s := range m.posScore {
		// An oracle NO overrules inference — but never ground truth: a
		// +Inf entry is a training anchor or queried positive, and a pure
		// oracle cannot have answered the same link both ways.
		if m.queriedNeg[key] && !math.IsInf(s, 1) {
			continue
		}
		rec.Add(multinet.ScoredLink{NetI: 0, NetJ: 1, A: m.posLink[key], Score: s})
	}
	clusters, rejected := rec.Finish()
	anchors := multinet.PairLinks(clusters, 0, 1)
	for _, a := range anchors {
		m.labels[hetnet.Key(a.I, a.J)] = 1
	}
	return &Result{
		anchors:      anchors,
		labels:       m.labels,
		scores:       m.scores,
		queried:      m.queried,
		queriedLinks: m.queriedLink,
		Rejected:     rejected,
	}
}
