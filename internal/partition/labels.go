package partition

import (
	"sort"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// LabeledLink is one oracle-labeled pool link: the unit of the labels a
// stable plan accumulates between active-learning rounds.
type LabeledLink struct {
	Link  hetnet.Anchor
	Label float64
}

// sortLabels orders labels by (I, J) — the canonical order, so two
// drivers that observed the same label set build byte-identical parts
// regardless of the completion order the labels streamed in.
func sortLabels(labels []LabeledLink) {
	sort.Slice(labels, func(a, b int) bool {
		if labels[a].Link.I != labels[b].Link.I {
			return labels[a].Link.I < labels[b].Link.I
		}
		return labels[a].Link.J < labels[b].Link.J
	})
}

// AppendLabels routes newly obtained oracle labels into the plan: each
// label is appended to the Prelabeled list of every part whose pool
// (TrainPos ∪ Candidates) contains the link, in canonical (I, J) order.
// Labels already present in a part — as a training anchor or from an
// earlier append — are skipped there, so repeated appends of overlapping
// batches stay idempotent. Returns the number of (part, label)
// assignments made.
//
// This is how a multi-round session carries labels forward: the plan
// stays stable (same shards, same candidate assignment), only the
// Prelabeled lists grow, and each round ships every part whole.
func (p *Plan) AppendLabels(labels []LabeledLink) int {
	if len(labels) == 0 {
		return 0
	}
	sorted := append([]LabeledLink(nil), labels...)
	sortLabels(sorted)
	assigned := 0
	for pi := range p.Parts {
		part := &p.Parts[pi]
		seen := make(map[int64]bool, len(part.TrainPos)+len(part.Prelabeled))
		pool := make(map[int64]bool, len(part.TrainPos)+len(part.Candidates))
		for _, a := range part.TrainPos {
			seen[hetnet.Key(a.I, a.J)] = true
			pool[hetnet.Key(a.I, a.J)] = true
		}
		for _, l := range part.Prelabeled {
			seen[hetnet.Key(l.Link.I, l.Link.J)] = true
		}
		for _, c := range part.Candidates {
			pool[hetnet.Key(c.I, c.J)] = true
		}
		for _, l := range sorted {
			key := hetnet.Key(l.Link.I, l.Link.J)
			if !pool[key] || seen[key] {
				continue
			}
			seen[key] = true
			part.Prelabeled = append(part.Prelabeled, l)
			assigned++
		}
	}
	return assigned
}

// Rebudget re-splits a new total query budget across the plan's parts in
// place, proportionally to candidate counts (the same rule planning
// uses). A multi-round driver calls this once per round with the round's
// budget slice; everything else about the plan — shards, candidates,
// accumulated prelabels — stays put.
func (p *Plan) Rebudget(total int) {
	for i := range p.Parts {
		p.Parts[i].Budget = 0
	}
	splitBudget(p.Parts, total)
}

// RoundBudget is the canonical per-round split of a session's total
// query budget: even across rounds, earlier rounds taking the remainder
// (labels bought early inform more retraining). Every driver of a
// multi-round plan — the facade's Options.Rounds path, the experiment
// harness — must use this same split so their runs stay comparable.
func RoundBudget(total, rounds, r int) int {
	if total <= 0 || rounds <= 0 {
		return 0
	}
	b := total / rounds
	if r < total%rounds {
		b++
	}
	return b
}

// roundSeedStride separates the per-round training seeds of a
// multi-round run, the same way seedStride separates shards.
const roundSeedStride = 2_038_074_743

// RoundSeed is round r's base training seed. Round 0 keeps the
// configured seed unchanged, so a one-round run is the single-shot run;
// like RoundBudget, every multi-round driver must use this one rule.
func RoundSeed(seed int64, r int) int64 { return seed + int64(r)*roundSeedStride }
