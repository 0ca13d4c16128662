package partition

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/multinet"
)

// referenceMerger is the merge as it stood before Finish ran the
// trainer's greedy: seven per-link maps, resolved by multinet's
// score-greedy union-find over two networks. Kept verbatim; Merger must
// produce its every entry, anchor, queried label and rejection count.
type referenceMerger struct {
	labels      map[int64]float64
	scores      map[int64]float64
	queried     map[int64]bool
	queriedNeg  map[int64]bool
	queriedLink map[int64]LabeledLink
	posScore    map[int64]float64
	posLink     map[int64]hetnet.Anchor
}

func newReferenceMerger() *referenceMerger {
	return &referenceMerger{
		labels:      make(map[int64]float64),
		scores:      make(map[int64]float64),
		queried:     make(map[int64]bool),
		queriedNeg:  make(map[int64]bool),
		queriedLink: make(map[int64]LabeledLink),
		posScore:    make(map[int64]float64),
		posLink:     make(map[int64]hetnet.Anchor),
	}
}

func (m *referenceMerger) Add(v Vote) {
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
			m.labels[key] = v.Label
		}
	}
	if v.Label == 1 {
		score := v.Score
		if v.Fixed || v.Queried {
			score = math.Inf(1)
		} else if math.IsNaN(score) {
			score = math.Inf(-1)
		}
		if old, ok := m.posScore[key]; !ok || score > old {
			m.posScore[key] = score
			m.posLink[key] = v.Link
		}
	}
}

// referenceResult is what the old Finish's Result answered.
type referenceResult struct {
	entries  []Entry
	anchors  []hetnet.Anchor
	queried  []LabeledLink
	rejected int
}

func (m *referenceMerger) Finish() referenceResult {
	var links []multinet.ScoredLink
	for key, s := range m.posScore {
		if m.queriedNeg[key] && !math.IsInf(s, 1) {
			continue
		}
		links = append(links, multinet.ScoredLink{NetI: 0, NetJ: 1, A: m.posLink[key], Score: s})
	}
	clusters, rejected := multinet.Reconcile(links)
	anchors := multinet.PairLinks(clusters, 0, 1)
	for _, a := range anchors {
		m.labels[hetnet.Key(a.I, a.J)] = 1
	}
	res := referenceResult{
		entries:  make([]Entry, 0, len(m.labels)),
		anchors:  anchors,
		queried:  make([]LabeledLink, 0, len(m.queriedLink)),
		rejected: rejected,
	}
	for key, label := range m.labels {
		i, j := hetnet.UnpackKey(key)
		e := Entry{Link: hetnet.Anchor{I: i, J: j}, Label: label, Queried: m.queried[key]}
		e.Score, e.HasScore = m.scores[key]
		res.entries = append(res.entries, e)
	}
	sort.Slice(res.entries, func(a, b int) bool {
		if res.entries[a].Link.I != res.entries[b].Link.I {
			return res.entries[a].Link.I < res.entries[b].Link.I
		}
		return res.entries[a].Link.J < res.entries[b].Link.J
	})
	for _, l := range m.queriedLink {
		res.queried = append(res.queried, l)
	}
	sortLabels(res.queried)
	return res
}

// randomVotes draws a two-network vote multiset over 1–4 overlapping
// shards: each pool link is voted by one to K shards, as a training
// anchor, an oracle answer (YES, NO, or a panel's soft label, now and
// then contradicted by another shard's answer) or an inference, on few
// users and few distinct scores so endpoints collide and scores tie.
// NaN scores appear on every kind of vote. reachesNo reports a link
// whose oracle NO meets another shard's inferred positive with no
// ground truth behind it — the case the oracle-NO rule decides.
func randomVotes(rng *rand.Rand) (votes []Vote, reachesNo bool) {
	users := 2 + rng.Intn(6)
	shards := 1 + rng.Intn(4)
	seen := make(map[hetnet.Anchor]bool)
	for n := rng.Intn(30); n > 0; n-- {
		link := hetnet.Anchor{I: rng.Intn(users), J: rng.Intn(users)}
		if seen[link] {
			continue
		}
		seen[link] = true
		answer := []float64{0, 0, 1, 0.5}[rng.Intn(4)]
		fixed := rng.Intn(6) == 0
		var saidNo, inferredYes, truthYes bool
		for s := 1 + rng.Intn(shards); s > 0; s-- {
			v := Vote{Link: link, Score: []float64{0.2, 0.5, 0.5, 0.9}[rng.Intn(4)]}
			if rng.Intn(8) == 0 {
				v.Score = math.NaN()
			}
			switch {
			case fixed:
				v.Label, v.Fixed = 1, true
			case rng.Intn(3) == 0:
				v.Label, v.Queried = answer, true
				if rng.Intn(5) == 0 {
					v.Label = []float64{0, 1, 0.5}[rng.Intn(3)]
				}
			default:
				v.Label = float64(rng.Intn(2))
			}
			saidNo = saidNo || v.Queried && v.Label == 0
			inferredYes = inferredYes || !v.Fixed && !v.Queried && v.Label == 1
			truthYes = truthYes || (v.Fixed || v.Queried) && v.Label == 1
			votes = append(votes, v)
		}
		reachesNo = reachesNo || saidNo && inferredYes && !truthYes
	}
	return votes, reachesNo
}

// TestMergerMatchesUnionFindReference: on random two-network vote
// multisets, fed in shuffled orders, Finish's greedy gives exactly the
// union-find reference's entries, anchors, queried labels and rejection
// count. The multisets must reach the oracle-NO rule and a rejection,
// or the equality proves nothing about them.
func TestMergerMatchesUnionFindReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	noRule, rejections := 0, 0
	for trial := 0; trial < 400; trial++ {
		votes, reachesNo := randomVotes(rng)
		if reachesNo {
			noRule++
		}
		for shuffle := 0; shuffle < 3; shuffle++ {
			rng.Shuffle(len(votes), func(a, b int) { votes[a], votes[b] = votes[b], votes[a] })
			m, ref := NewMerger(), newReferenceMerger()
			for _, v := range votes {
				m.Add(v)
				ref.Add(v)
			}
			got, want := m.Finish(), ref.Finish()
			if got.Rejected > 0 {
				rejections++
			}
			switch {
			case !reflect.DeepEqual(got.Entries(), want.entries):
				t.Fatalf("trial %d: entries\n got %+v\nwant %+v", trial, got.Entries(), want.entries)
			case !reflect.DeepEqual(got.QueriedLabels(), want.queried):
				t.Fatalf("trial %d: queried labels\n got %v\nwant %v", trial, got.QueriedLabels(), want.queried)
			case got.Rejected != want.rejected:
				t.Fatalf("trial %d: rejected %d, reference %d", trial, got.Rejected, want.rejected)
			case len(got.PredictedAnchors()) != len(want.anchors) ||
				len(want.anchors) > 0 && !reflect.DeepEqual(got.PredictedAnchors(), want.anchors):
				t.Fatalf("trial %d: anchors\n got %v\nwant %v", trial, got.PredictedAnchors(), want.anchors)
			}
		}
	}
	if noRule == 0 || rejections == 0 {
		t.Fatalf("reach: %d multisets met the oracle-NO rule, %d merges rejected a link; want both > 0", noRule, rejections)
	}
}
