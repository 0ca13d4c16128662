// Package serve is the online half of the offline→online bridge: it
// loads an alignment snapshot (internal/snapshot) into a read-optimized
// in-memory index and answers the query shapes a production alignment
// service needs — O(1) matched-partner lookup, per-user top-k candidate
// ranking, pool-link score lookup, and inductive rescoring of unseen
// feature vectors through core.Predictor.
//
// An Index is immutable once built; concurrent readers share it without
// locks. Store holds the current Index behind an atomic pointer so a
// zero-downtime reload is one pointer swap: in-flight requests finish
// on the generation they started on, new requests see the new one, and
// no request ever observes a mix (the -race stress test pins exactly
// this property). Handler wraps a Store in the alignd HTTP surface with
// per-endpoint QPS/latency counters.
package serve

import (
	"fmt"
	"math"
	"strconv"

	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// Match is one answered matched-partner lookup.
type Match struct {
	Index    int32
	ID       string
	Score    float64
	HasScore bool
}

// Candidate is one ranked counterpart suggestion (JSON-tagged: it is
// serialized directly into /v1/candidates responses).
type Candidate struct {
	Index int32   `json:"index"`
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// PoolAnswer is a pool-link score lookup: the frozen training-time
// verdict on one candidate link.
type PoolAnswer struct {
	Label    float64
	Score    float64
	HasScore bool
	Queried  bool
}

// Index is a read-optimized, immutable view of one snapshot. Build it
// once with NewIndex; every method is safe for unbounded concurrent
// use because nothing mutates after construction.
type Index struct {
	// Generation is the Store-assigned reload counter (0 until the
	// index is swapped in). Every HTTP answer carries it so a client —
	// and the reload stress test — can tell which model generation
	// produced the response.
	Generation uint64

	snap           *snapshot.Snapshot
	match1, match2 map[int32]snapshot.Match
	cands1, cands2 map[int32][]snapshot.Candidate
	pool           map[int64]snapshot.PoolLink
	users1, users2 map[string]int32
	shards         map[int]*core.Predictor
	lowestShard    int // what a rescore without a shard uses
}

// NewIndex builds the lookup structures from a decoded snapshot.
func NewIndex(s *snapshot.Snapshot) (*Index, error) {
	if s == nil {
		return nil, fmt.Errorf("serve: nil snapshot")
	}
	ix := &Index{
		snap:   s,
		match1: make(map[int32]snapshot.Match, len(s.Matches)),
		match2: make(map[int32]snapshot.Match, len(s.Matches)),
		cands1: make(map[int32][]snapshot.Candidate),
		cands2: make(map[int32][]snapshot.Candidate),
		pool:   make(map[int64]snapshot.PoolLink, len(s.Pool)),
		users1: make(map[string]int32, len(s.Meta.Users1)),
		users2: make(map[string]int32, len(s.Meta.Users2)),
		shards: make(map[int]*core.Predictor, len(s.Model.Shards)),
	}
	for _, m := range s.Matches {
		ix.match1[m.I] = m
		ix.match2[m.J] = m
	}
	for _, uc := range s.Cands {
		switch uc.Net {
		case 1:
			ix.cands1[uc.User] = uc.Items
		case 2:
			ix.cands2[uc.User] = uc.Items
		default:
			return nil, fmt.Errorf("serve: candidate list for unknown net %d", uc.Net)
		}
	}
	for _, p := range s.Pool {
		ix.pool[hetnet.Key(int(p.I), int(p.J))] = p
	}
	for i, id := range s.Meta.Users1 {
		ix.users1[id] = int32(i)
	}
	for j, id := range s.Meta.Users2 {
		ix.users2[id] = int32(j)
	}
	for n, sm := range s.Model.Shards {
		p, err := core.NewPredictorFromWeights(sm.W, s.Meta.Threshold)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", sm.Shard, err)
		}
		ix.shards[sm.Shard] = p
		if n == 0 || sm.Shard < ix.lowestShard {
			ix.lowestShard = sm.Shard
		}
	}
	return ix, nil
}

// Meta exposes the snapshot's provenance header.
func (ix *Index) Meta() snapshot.Meta { return ix.snap.Meta }

// Snapshot exposes the decoded artifact the index was built from. The
// snapshot is immutable by the same contract as the index; the setsync
// listener serves it to reconciling fleet members.
func (ix *Index) Snapshot() *snapshot.Snapshot { return ix.snap }

// TopK returns the snapshot's precomputed candidate-list depth.
func (ix *Index) TopK() int { return ix.snap.TopK }

// Counts summarizes the index for statusz.
func (ix *Index) Counts() (users1, users2, matches, pool int) {
	return len(ix.snap.Meta.Users1), len(ix.snap.Meta.Users2), len(ix.snap.Matches), len(ix.snap.Pool)
}

// ResolveUser maps an external user token on net (1 or 2) to an index:
// an exact ID-table hit first, else a numeric index in range. The
// boolean reports success.
func (ix *Index) ResolveUser(net int, token string) (int32, bool) {
	users, table := ix.users1, ix.snap.Meta.Users1
	if net == 2 {
		users, table = ix.users2, ix.snap.Meta.Users2
	}
	if idx, ok := users[token]; ok {
		return idx, true
	}
	if n, err := strconv.Atoi(token); err == nil && n >= 0 && n < len(table) {
		return int32(n), true
	}
	return 0, false
}

// UserID returns the external ID of a user index on net (1 or 2).
func (ix *Index) UserID(net int, idx int32) string {
	if net == 2 {
		return ix.snap.Meta.Users2[idx]
	}
	return ix.snap.Meta.Users1[idx]
}

// MatchFor answers the O(1) matched-partner lookup: the reconciled
// one-to-one counterpart of user on net (1 or 2), if any.
func (ix *Index) MatchFor(net int, user int32) (Match, bool) {
	if net == 2 {
		m, ok := ix.match2[user]
		if !ok {
			return Match{}, false
		}
		return Match{Index: m.I, ID: ix.UserID(1, m.I), Score: m.Score, HasScore: m.HasScore}, true
	}
	m, ok := ix.match1[user]
	if !ok {
		return Match{}, false
	}
	return Match{Index: m.J, ID: ix.UserID(2, m.J), Score: m.Score, HasScore: m.HasScore}, true
}

// CandidatesFor returns user's ranked counterpart candidates, at most k
// (k ≤ 0 or beyond the snapshot's precomputed depth returns the full
// precomputed list).
func (ix *Index) CandidatesFor(net int, user int32, k int) []Candidate {
	src := ix.cands1
	other := 2
	if net == 2 {
		src = ix.cands2
		other = 1
	}
	items := src[user]
	if k > 0 && k < len(items) {
		items = items[:k]
	}
	out := make([]Candidate, len(items))
	for i, c := range items {
		out[i] = Candidate{Index: c.Other, ID: ix.UserID(other, c.Other), Score: c.Score}
	}
	return out
}

// PoolScore looks up the frozen training-time verdict on link (i, j).
func (ix *Index) PoolScore(i, j int32) (PoolAnswer, bool) {
	p, ok := ix.pool[hetnet.Key(int(i), int(j))]
	if !ok {
		return PoolAnswer{}, false
	}
	return PoolAnswer{Label: p.Label, Score: p.Score, HasScore: p.HasScore, Queried: p.Queried}, true
}

// Rescore scores an unseen feature vector with the snapshot's trained
// model: shard ≥ 0 picks that shard's model, shard < 0 the lowest
// shard's (a monolithic artifact's one model is shard 0). The feature
// vector must match Meta.Notation's layout, and its score must be finite:
// a vector whose weighted sum overflows has no JSON answer.
func (ix *Index) Rescore(shard int, x []float64) (score, label float64, err error) {
	if shard < 0 {
		shard = ix.lowestShard
	}
	p := ix.shards[shard]
	if p == nil {
		return 0, 0, fmt.Errorf("serve: no model for shard %d (snapshot has %s)", shard, ix.modelInventory())
	}
	if dim := len(ix.snap.Meta.Notation); len(x) != dim {
		return 0, 0, fmt.Errorf("serve: feature vector has %d entries, notation expects %d", len(x), dim)
	}
	if score = p.Score(x); math.IsInf(score, 0) || math.IsNaN(score) {
		return 0, 0, fmt.Errorf("serve: feature vector scores %v, not a finite number", score)
	}
	return score, p.Predict(x), nil
}

// Shards lists the shard indices with models, for statusz and errors.
func (ix *Index) Shards() []int {
	out := make([]int, 0, len(ix.shards))
	for _, sm := range ix.snap.Model.Shards {
		out = append(out, sm.Shard)
	}
	return out
}

func (ix *Index) modelInventory() string {
	if len(ix.shards) == 0 {
		return "no models"
	}
	return fmt.Sprintf("shard models %v", ix.Shards())
}

// Label returns the final label of link (i, j) and whether the link was
// in the candidate pool. Together with WasQueried this satisfies the
// facade's AlignmentResult contract, so EvaluateAlignment scores a
// loaded snapshot exactly like the live result it was built from.
func (ix *Index) Label(i, j int) (float64, bool) {
	p, ok := ix.pool[hetnet.Key(i, j)]
	if !ok {
		return 0, false
	}
	return p.Label, true
}

// WasQueried reports whether (i, j) was labeled by the oracle.
func (ix *Index) WasQueried(i, j int) bool {
	p, ok := ix.pool[hetnet.Key(i, j)]
	return ok && p.Queried
}
