package partition

import (
	"math"
	"slices"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/matching"
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
// and Finish resolves the accumulated positives with the trainer's own
// one-to-one greedy (matching.GreedyMerge): descending score, ties by
// (I, J), a link kept when neither endpoint is taken. The outcome is
// identical for any Add order of the same vote multiset.
//
// Ground truth outranks inference in both directions: training anchors
// and queried positives enter the greedy at +Inf score so they always
// win, while a link the oracle answered NEGATIVE in any shard never
// enters at all — an overlapping shard that merely inferred it positive
// must not overrule a paid-for oracle answer. Remaining inferred
// positives compete at their best per-shard raw score; conflicting
// inferred links across shard borders lose to the higher-scored side
// and are counted in Result.Rejected.
//
// A Merger is single-use and not safe for concurrent use; serialize
// Add calls externally.
type Merger struct {
	index map[int64]int32 // link key → its record in recs
	recs  []linkRecord    // one per link, in order of first vote
}

// linkRecord is one pool link's merge state: the read-side Entry plus
// what Finish needs to decide the link.
type linkRecord struct {
	Entry
	answer float64 // the oracle's answer, when Entry.Queried (the last to arrive)
	pos    float64 // best positive vote, when hasPos
	hasPos bool
	saidNo bool // some shard's oracle answered NO
}

// NewMerger returns an empty vote merger.
func NewMerger() *Merger { return newMerger(0) }

// newMerger returns an empty merger with room for the given number of
// votes, so that many distinct links never grow its storage.
func newMerger(votes int) *Merger {
	return &Merger{index: make(map[int64]int32, votes), recs: make([]linkRecord, 0, votes)}
}

// NewMerger returns an empty merger sized for the plan's votes: one per
// link of every part's pool.
func (p *Plan) NewMerger() *Merger {
	votes := 0
	for i := range p.Parts {
		votes += len(p.Parts[i].TrainPos) + len(p.Parts[i].Candidates)
	}
	return newMerger(votes)
}

// Add folds one vote into the merge state.
func (m *Merger) Add(v Vote) {
	key := hetnet.Key(v.Link.I, v.Link.J)
	at, ok := m.index[key]
	if !ok {
		at = int32(len(m.recs))
		m.index[key] = at
		m.recs = append(m.recs, linkRecord{Entry: Entry{Link: v.Link}})
	}
	m.recs[at].add(v)
}

// addDistinct is Add for a vote on a link no other vote names — one
// part's pool holds each link once — and leaves the index to the
// result's first lookup.
func (m *Merger) addDistinct(v Vote) {
	m.recs = append(m.recs, linkRecord{Entry: Entry{Link: v.Link}})
	m.recs[len(m.recs)-1].add(v)
}

// add folds one vote into the link's record.
func (r *linkRecord) add(v Vote) {
	if !math.IsNaN(v.Score) && (!r.HasScore || v.Score > r.Score) {
		r.Score, r.HasScore = v.Score, true
	}
	if v.Queried {
		r.Queried, r.answer = true, v.Label
		r.saidNo = r.saidNo || v.Label == 0
		if v.Label != 1 {
			// Only a YES goes through the greedy; any other answer — a NO,
			// or an earlier panel's soft label fixed as a prelabel — is the
			// link's final label as it stands.
			r.Label = v.Label
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
			// ordered by matching.Compare.
			score = math.Inf(-1)
		}
		if !r.hasPos || score > r.pos {
			r.pos, r.hasPos = score, true
		}
	}
}

// Finish resolves the accumulated votes and returns the merged result.
// Reports and Elapsed are left for the caller to fill.
func (m *Merger) Finish() *Result {
	var cands []matching.Candidate
	for at, r := range m.recs {
		// An oracle NO overrules inference — but never ground truth: a
		// +Inf vote is a training anchor or queried positive, and a pure
		// oracle cannot have answered the same link both ways.
		if r.hasPos && (!r.saidNo || math.IsInf(r.pos, 1)) {
			cands = append(cands, matching.Candidate{I: r.Link.I, J: r.Link.J, Score: r.pos, Payload: at})
		}
	}
	slices.SortFunc(cands, matching.Compare)
	n := len(cands)
	picks := matching.GreedyMerge(cands[:0], [][]matching.Candidate{cands}, nil)
	anchors := make([]hetnet.Anchor, len(picks))
	for k, c := range picks {
		anchors[k] = hetnet.Anchor{I: c.I, J: c.J}
		m.recs[c.Payload].Label = 1
	}
	slices.SortFunc(anchors, compareLinks)
	return &Result{anchors: anchors, index: m.index, recs: m.recs, Rejected: n - len(picks)}
}
