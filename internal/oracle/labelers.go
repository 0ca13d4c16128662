// Package oracle models the unreliable labeler pools of production
// crowdsourcing behind the active.Oracle interface the training loop
// queries. The paper assumes a perfect oracle for every anchor-link
// question; real labelers err, and some lie. This package provides the
// pluggable labeler models (honest, independently noisy, adversarial,
// colluding), a Panel that replicates each query across R labelers and
// resolves by majority vote, a contradiction ledger that flags
// one-to-one-constraint violations, and per-labeler Beta-posterior
// trust scores that downweight suspect labelers when emitting
// confidence-weighted labels (consumed via core.Problem.Prelabeled).
//
// Every labeler answers as a pure deterministic function of the queried
// link — the property the concurrent shard pipelines and the
// distributed retry machinery rely on for reproducible runs (see
// PartitionedAligner's oracle caveat). All mutable state (the ledger,
// trust posteriors) lives in the Panel, is lock-guarded, and never
// influences the binary answer a query returns, so answer streams stay
// order-independent.
package oracle

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/hetnet"
)

// Labeler is one member of a labeling pool: an oracle with an identity
// the trust ledger can score. Label must be a pure deterministic
// function of the link.
type Labeler interface {
	// ID names the labeler in ledgers, trust reports and logs.
	ID() string
	// Label answers 1 when the labeler claims the link is an anchor.
	Label(a hetnet.Anchor) float64
}

// mix is a splitmix64-style finalizer: avalanches a 64-bit key so that
// per-link pseudo-randomness is deterministic yet uncorrelated across
// links, labelers and seeds.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// linkHash folds a link and a seed into one avalanche-mixed word.
func linkHash(a hetnet.Anchor, seed int64) uint64 {
	return mix(uint64(hetnet.Key(a.I, a.J)) ^ uint64(seed)*0x9e3779b97f4a7c15)
}

// unitFloat maps a hash to [0, 1) with enough resolution for flip-rate
// thresholds.
func unitFloat(h uint64) float64 {
	return float64(h%1_000_000) / 1_000_000
}

// Honest answers every query truthfully from the ground-truth oracle.
type Honest struct {
	Name  string
	Truth active.Oracle
}

// ID implements Labeler.
func (h *Honest) ID() string { return h.Name }

// Label implements Labeler.
func (h *Honest) Label(a hetnet.Anchor) float64 { return h.Truth.Label(a) }

// Flipper errs independently: it flips the true answer with probability
// FlipProb, deterministically per (link, Seed) — the NoisyOracle model
// with a per-labeler seed, so two flippers in one pool err on different
// links.
type Flipper struct {
	Name     string
	Truth    active.Oracle
	FlipProb float64
	Seed     int64
}

// ID implements Labeler.
func (f *Flipper) ID() string { return f.Name }

// Label implements Labeler.
func (f *Flipper) Label(a hetnet.Anchor) float64 {
	truth := f.Truth.Label(a)
	if unitFloat(linkHash(a, f.Seed)) < f.FlipProb {
		return 1 - truth
	}
	return truth
}

// Adversary always lies: every answer is the negation of the truth. A
// lone adversary is the worst-case independent labeler; majority vote
// over honest peers absorbs it.
type Adversary struct {
	Name  string
	Truth active.Oracle
}

// ID implements Labeler.
func (ad *Adversary) ID() string { return ad.Name }

// Label implements Labeler.
func (ad *Adversary) Label(a hetnet.Anchor) float64 { return 1 - ad.Truth.Label(a) }

// defaultColluderModulus spreads the fabricated matching's yes-answers
// to roughly 1/17 of queried links — dense enough to collide on shared
// endpoints (feeding the contradiction ledger), sparse enough to look
// like a deliberate target rather than noise.
const defaultColluderModulus = 17

// Colluder pushes a fabricated alignment: every colluder sharing a
// GroupSeed claims user i's counterpart is any j with
// j ≡ t(i) (mod Modulus) — a consistent wrong target — and denies
// everything else, true anchors included. Colluders agree with each
// other perfectly, which is exactly what makes them dangerous to
// majority vote and visible to the contradiction ledger (their claimed
// matching is many-to-one on both sides).
type Colluder struct {
	Name      string
	GroupSeed int64
	// Modulus controls the density of the fabricated matching;
	// 0 means the default.
	Modulus int
}

// ID implements Labeler.
func (c *Colluder) ID() string { return c.Name }

// Label implements Labeler.
func (c *Colluder) Label(a hetnet.Anchor) float64 {
	m := c.Modulus
	if m <= 1 {
		m = defaultColluderModulus
	}
	t := mix(uint64(a.I)*0x9e3779b97f4a7c15^uint64(c.GroupSeed)) % uint64(m)
	if uint64(a.J)%uint64(m) == t {
		return 1
	}
	return 0
}

// Config describes a simulated labeler pool. The zero value is invalid
// (an empty pool); experiments and the facade build panels from it via
// Build.
type Config struct {
	// Honest labelers always answer the truth.
	Honest int
	// Noisy labelers flip each answer with probability FlipProb,
	// independently per labeler (distinct per-labeler seeds).
	Noisy int
	// FlipProb is the noisy labelers' per-answer flip probability.
	FlipProb float64
	// Adversarial labelers always lie.
	Adversarial int
	// Colluding labelers jointly push one fabricated wrong matching.
	Colluding int
	// Replicas is R, the number of labelers consulted per query; 0 (or
	// anything ≥ the pool size) consults the whole pool.
	Replicas int
	// Seed drives per-labeler noise, the colluders' fabricated target
	// and the per-link replica choice.
	Seed int64
}

// Validate rejects configurations that would be silently misread.
func (c Config) Validate() error {
	switch {
	case c.Honest < 0 || c.Noisy < 0 || c.Adversarial < 0 || c.Colluding < 0:
		return fmt.Errorf("oracle: negative labeler count in %+v", c)
	case c.Honest+c.Noisy+c.Adversarial+c.Colluding == 0:
		return fmt.Errorf("oracle: empty labeler pool")
	case c.FlipProb < 0 || c.FlipProb >= 1:
		return fmt.Errorf("oracle: flip probability %v outside [0, 1)", c.FlipProb)
	case c.Replicas < 0:
		return fmt.Errorf("oracle: negative replicas %d", c.Replicas)
	}
	return nil
}

// Pool materializes the configured labelers around a ground-truth
// oracle. Labeler IDs are stable ("honest-0", "noisy-1", ...), ordered
// honest, noisy, adversarial, colluding.
func (c Config) Pool(truth active.Oracle) []Labeler {
	pool := make([]Labeler, 0, c.Honest+c.Noisy+c.Adversarial+c.Colluding)
	for i := 0; i < c.Honest; i++ {
		pool = append(pool, &Honest{Name: fmt.Sprintf("honest-%d", len(pool)), Truth: truth})
	}
	for i := 0; i < c.Noisy; i++ {
		pool = append(pool, &Flipper{
			Name: fmt.Sprintf("noisy-%d", len(pool)), Truth: truth,
			FlipProb: c.FlipProb, Seed: c.Seed + int64(len(pool))*7919,
		})
	}
	for i := 0; i < c.Adversarial; i++ {
		pool = append(pool, &Adversary{Name: fmt.Sprintf("adversary-%d", len(pool)), Truth: truth})
	}
	for i := 0; i < c.Colluding; i++ {
		pool = append(pool, &Colluder{Name: fmt.Sprintf("colluder-%d", len(pool)), GroupSeed: c.Seed})
	}
	return pool
}

// Build validates the config and assembles a Panel over the pool. The
// truth oracle backs the honest, noisy and adversarial labelers; it is
// required because a pool without a ground-truth source cannot answer.
func (c Config) Build(truth active.Oracle) (*Panel, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if truth == nil {
		return nil, fmt.Errorf("oracle: nil ground-truth oracle behind the labeler pool")
	}
	return NewPanel(c.Pool(truth), PanelOptions{Replicas: c.Replicas, Seed: c.Seed})
}
