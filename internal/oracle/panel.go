package oracle

import (
	"fmt"
	"sort"
	"sync"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// PanelOptions tunes a Panel beyond its labeler pool.
type PanelOptions struct {
	// Replicas is R, the labelers consulted per query; 0 or anything
	// ≥ the pool size consults every labeler.
	Replicas int
	// Seed drives the deterministic per-link replica choice.
	Seed int64
}

// DefaultDistrustBelow is the trust cutoff under which a labeler's
// votes are zero-weighted in confidence computation. A fresh labeler
// starts at the Beta(1,1) mean 0.5; an always-lying labeler converges
// toward 0 and crosses this line within a handful of queries.
const DefaultDistrustBelow = 0.25

// contradictionPenalty is the pseudo-count of disagreement evidence one
// flagged one-to-one violation adds to a labeler's Beta posterior — a
// contradiction is stronger evidence of unreliability than a single
// outvoted answer, because it is provably wrong regardless of ground
// truth (two "yes" answers claiming the same user cannot both hold).
const contradictionPenalty = 2

// vote records one resolved query: the consulted labelers, their raw
// answers, and the majority verdict.
type vote struct {
	link    hetnet.Anchor
	voters  []int // indices into Panel.labelers
	answers []float64
	verdict float64
}

// labelerStats is the per-labeler ledger entry: the Beta-posterior
// evidence counts, contradiction tally, and the first-claim maps the
// one-to-one check runs against.
type labelerStats struct {
	agree          float64 // consensus agreements (Beta α evidence)
	disagree       float64 // consensus disagreements + penalties (Beta β evidence)
	contradictions int
	yesByI         map[int]int // I → first J this labeler claimed
	yesByJ         map[int]int // J → first I this labeler claimed
	distrustLatch  bool        // counted once in the distrusted telemetry
}

// Contradiction is one flagged one-to-one violation: a "yes" answer
// whose endpoint was already claimed for a different partner.
type Contradiction struct {
	// Labeler is the violator's ID; "panel" when the majority verdicts
	// themselves collide.
	Labeler string
	// Link is the later claim; Prior is the earlier claim sharing an
	// endpoint with it.
	Link, Prior hetnet.Anchor
}

// LabelerTrust is one labeler's scored ledger row.
type LabelerTrust struct {
	ID             string
	Trust          float64 // Beta posterior mean in (0, 1)
	Votes          int     // queries this labeler was consulted on
	Contradictions int
	Distrusted     bool // trust below the panel's cutoff
}

// WeightedLabel is one panel-resolved link with its trust-weighted
// confidence: Label is the majority verdict, Confidence the
// trust-weighted fraction of the consulted pool that agreed with it.
// Value folds both into the soft anchor probability consumed via
// core.Problem.Prelabeled.
type WeightedLabel struct {
	Link       hetnet.Anchor
	Label      float64 // majority verdict, 0 or 1
	Confidence float64 // trust-weighted agreement, in [0, 1]
}

// Value returns the confidence-weighted soft label in [0, 1]: the
// panel's probability that the link is an anchor. A unanimous trusted
// "yes" is exactly 1 and a unanimous trusted "no" exactly 0, so honest
// panels reproduce hard labels bit for bit.
func (w WeightedLabel) Value() float64 {
	if w.Label == 1 {
		return w.Confidence
	}
	return 1 - w.Confidence
}

// Panel replicates every oracle query across R labelers and resolves by
// majority vote. It implements active.Oracle and is safe for concurrent
// use: answers are pure deterministic functions of the link (replica
// choice, labeler answers and the vote are all hash-driven), repeated
// queries return the cached verdict without re-spending ledger updates,
// and the mutable trust/ledger state never influences a verdict — so
// concurrent shard pipelines and distributed retries see exactly the
// answer stream a serial run would.
type Panel struct {
	labelers []Labeler
	r        int // resolved replicas per query
	seed     int64

	mu             sync.Mutex
	answered       map[int64]*vote
	stats          []labelerStats
	yesByI         map[int]int // majority-level first-claim maps
	yesByJ         map[int]int
	contradictions []Contradiction
	panelViolation int // majority-verdict one-to-one violations
}

// NewPanel assembles a panel over the labeler pool.
func NewPanel(pool []Labeler, opts PanelOptions) (*Panel, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("oracle: empty labeler pool")
	}
	r := opts.Replicas
	if r <= 0 || r > len(pool) {
		r = len(pool)
	}
	p := &Panel{
		labelers: pool,
		r:        r,
		seed:     opts.Seed,
		answered: make(map[int64]*vote),
		stats:    make([]labelerStats, len(pool)),
		yesByI:   make(map[int]int),
		yesByJ:   make(map[int]int),
	}
	for i := range p.stats {
		p.stats[i].yesByI = make(map[int]int)
		p.stats[i].yesByJ = make(map[int]int)
	}
	return p, nil
}

// Replicas returns the resolved per-query replication factor R.
func (p *Panel) Replicas() int { return p.r }

// Label implements active.Oracle: replicate the query across R
// labelers, resolve by majority vote (ties resolve to 0 — the
// conservative "not an anchor"), update the ledger, and return the
// verdict. Re-queries of an answered link return the cached verdict
// and leave the ledger untouched, so distributed retries neither flip
// answers nor double-count evidence.
func (p *Panel) Label(a hetnet.Anchor) float64 {
	key := hetnet.Key(a.I, a.J)
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.answered[key]; ok {
		return v.verdict
	}
	v := &vote{link: a, voters: p.pickVoters(a)}
	yes := 0
	for _, li := range v.voters {
		ans := p.labelers[li].Label(a)
		if ans != 0 {
			ans = 1
			yes++
		}
		v.answers = append(v.answers, ans)
	}
	if 2*yes > len(v.voters) {
		v.verdict = 1
	}
	p.answered[key] = v
	mReplicas.Add(int64(len(v.voters)))
	p.settle(v)
	return v.verdict
}

// pickVoters chooses the R labelers consulted for a link: the pool
// indices ranked by a per-(link, labeler) hash, so the choice is
// deterministic per link, unbiased across the pool, and independent of
// query order.
func (p *Panel) pickVoters(a hetnet.Anchor) []int {
	n := len(p.labelers)
	if p.r >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	type ranked struct {
		idx int
		h   uint64
	}
	rs := make([]ranked, n)
	lh := linkHash(a, p.seed)
	for i := range rs {
		rs[i] = ranked{idx: i, h: mix(lh ^ uint64(i)*0x9e3779b97f4a7c15)}
	}
	sort.Slice(rs, func(x, y int) bool {
		if rs[x].h != rs[y].h {
			return rs[x].h < rs[y].h
		}
		return rs[x].idx < rs[y].idx
	})
	out := make([]int, p.r)
	for i := 0; i < p.r; i++ {
		out[i] = rs[i].idx
	}
	sort.Ints(out)
	return out
}

// settle folds one fresh vote into the ledger: per-labeler consensus
// agreement/disagreement evidence, per-labeler and panel-level
// one-to-one contradiction checks, and the distrust latch. Called with
// the panel lock held. Every update is a per-(link, labeler) pure
// increment, so ledger totals are independent of query order.
func (p *Panel) settle(v *vote) {
	for k, li := range v.voters {
		st := &p.stats[li]
		if v.answers[k] == v.verdict {
			st.agree++
		} else {
			st.disagree++
		}
		if v.answers[k] == 1 {
			p.flagViolations(st.yesByI, st.yesByJ, v.link, p.labelers[li].ID(), st)
		}
		if trust := st.trust(); trust < DefaultDistrustBelow && !st.distrustLatch {
			st.distrustLatch = true
			mDistrusted.Inc()
		}
	}
	if v.verdict == 1 {
		p.flagViolations(p.yesByI, p.yesByJ, v.link, "panel", nil)
	}
}

// flagViolations runs the one-to-one check for a "yes" claim against
// the first-claim maps: a second distinct partner on either endpoint is
// a contradiction — two "yes" answers claiming the same user cannot
// both hold. st is nil for the panel-level majority ledger.
func (p *Panel) flagViolations(byI, byJ map[int]int, link hetnet.Anchor, who string, st *labelerStats) {
	flag := func(prior hetnet.Anchor) {
		p.contradictions = append(p.contradictions, Contradiction{Labeler: who, Link: link, Prior: prior})
		mContradictions.Inc()
		if st != nil {
			st.contradictions++
			st.disagree += contradictionPenalty
		} else {
			p.panelViolation++
		}
	}
	if j, ok := byI[link.I]; ok {
		if j != link.J {
			flag(hetnet.Anchor{I: link.I, J: j})
		}
	} else {
		byI[link.I] = link.J
	}
	if i, ok := byJ[link.J]; ok {
		if i != link.I {
			flag(hetnet.Anchor{I: i, J: link.J})
		}
	} else {
		byJ[link.J] = link.I
	}
}

// trust is the Beta(1+agree, 1+disagree) posterior mean — the
// probability the labeler's next answer matches consensus, shrunk
// toward ½ under little evidence.
func (st *labelerStats) trust() float64 {
	return (1 + st.agree) / (2 + st.agree + st.disagree)
}

// Queries returns the number of distinct links answered.
func (p *Panel) Queries() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.answered)
}

// TrustScores returns every labeler's scored ledger row, in pool order.
func (p *Panel) TrustScores() []LabelerTrust {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]LabelerTrust, len(p.labelers))
	for i := range p.labelers {
		st := &p.stats[i]
		trust := st.trust()
		out[i] = LabelerTrust{
			ID:             p.labelers[i].ID(),
			Trust:          trust,
			Votes:          int(st.agree + st.disagree - contradictionPenalty*float64(st.contradictions)),
			Contradictions: st.contradictions,
			Distrusted:     trust < DefaultDistrustBelow,
		}
	}
	return out
}

// Contradictions returns the flagged one-to-one violations in flag
// order. The count (labeler-level + panel-level) is deterministic for a
// given set of queried links; the pair ordering inside each record may
// reflect query order.
func (p *Panel) Contradictions() []Contradiction {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Contradiction(nil), p.contradictions...)
}

// PanelViolations returns how many majority verdicts themselves
// violated the one-to-one constraint — noise that survived voting.
func (p *Panel) PanelViolations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.panelViolation
}

// Distrusted returns the IDs of labelers currently below the trust
// cutoff, in pool order.
func (p *Panel) Distrusted() []string {
	var out []string
	for _, lt := range p.TrustScores() {
		if lt.Distrusted {
			out = append(out, lt.ID)
		}
	}
	return out
}

// WeightedLabels returns every answered link with its confidence under
// the final trust posteriors, in canonical (I, J) order. Votes are
// weighted by each voter's trust, with distrusted labelers
// zero-weighted; confidence is the weighted fraction that agreed with
// the majority verdict (½ when every voter is distrusted — an answer
// with no credible support carries no information). Computing against
// the final posteriors, not the mid-run ones, keeps the output a pure
// function of the queried link set.
func (p *Panel) WeightedLabels() []WeightedLabel {
	p.mu.Lock()
	defer p.mu.Unlock()
	weights := make([]float64, len(p.labelers))
	for i := range p.stats {
		if t := p.stats[i].trust(); t >= DefaultDistrustBelow {
			weights[i] = t
		}
	}
	out := make([]WeightedLabel, 0, len(p.answered))
	for _, v := range p.answered {
		var total, agreeing float64
		for k, li := range v.voters {
			total += weights[li]
			if v.answers[k] == v.verdict {
				agreeing += weights[li]
			}
		}
		conf := 0.5
		if total > 0 {
			conf = agreeing / total
		}
		out = append(out, WeightedLabel{Link: v.link, Label: v.verdict, Confidence: conf})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Link.I != out[b].Link.I {
			return out[a].Link.I < out[b].Link.I
		}
		return out[a].Link.J < out[b].Link.J
	})
	return out
}

// Report is a panel run's audit summary.
type Report struct {
	Labelers       int
	Replicas       int
	Queries        int
	Contradictions int // flagged one-to-one violations, labeler + panel level
	PanelViolation int // majority verdicts violating one-to-one
	Distrusted     []string
	Trust          []LabelerTrust
}

// Report summarizes the panel's ledger.
func (p *Panel) Report() Report {
	trust := p.TrustScores()
	var distrusted []string
	contradictions := 0
	for _, lt := range trust {
		if lt.Distrusted {
			distrusted = append(distrusted, lt.ID)
		}
		contradictions += lt.Contradictions
	}
	p.mu.Lock()
	queries := len(p.answered)
	panelViolation := p.panelViolation
	p.mu.Unlock()
	return Report{
		Labelers:       len(p.labelers),
		Replicas:       p.r,
		Queries:        queries,
		Contradictions: contradictions + panelViolation,
		PanelViolation: panelViolation,
		Distrusted:     distrusted,
		Trust:          trust,
	}
}
