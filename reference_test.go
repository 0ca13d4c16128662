package activeiter

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/partition"
)

// referenceReconcileFixed is the monolithic aligner's reconcileFixed as
// it stood before it ran matching.Greedy: its own endpoint maps over the
// fixed positives in (I, J) order. Kept verbatim; the one-part merge
// must label exactly its losers 0.
func referenceReconcileFixed(res *core.Result, links []Anchor, trainPos int) map[int64]bool {
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

// TestReconcileFixedMatchesReference trains small random pools whose
// training anchors, prelabels and in-run oracle answers fix positives
// that share endpoints, merges each pool's votes as one part
// (partition.PartVotes through the Merger), and checks the fixed
// positives the merge labels 0 are exactly the links the endpoint-map
// loop drops. Some pool must lose a link, or the equality proves
// nothing.
func TestReconcileFixedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	losing := 0
	for trial := 0; trial < 60; trial++ {
		users := 3 + rng.Intn(6)
		seen := make(map[Anchor]bool)
		var links []Anchor
		for n := 4 + rng.Intn(30); n > 0; n-- {
			if l := (Anchor{I: rng.Intn(users), J: rng.Intn(users)}); !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
		trainPos := 1 + rng.Intn(min(4, len(links)))
		x := linalg.NewDense(len(links), 3)
		for r := range links {
			for c := 0; c < 3; c++ {
				x.Set(r, c, rng.Float64())
			}
		}
		p := core.Problem{Links: links, X: x}
		for idx := range trainPos {
			p.LabeledPos = append(p.LabeledPos, idx)
		}
		yes := make(truthMapOracle)
		for idx := trainPos; idx < len(links); idx++ {
			switch rng.Intn(4) {
			case 0:
				p.Prelabeled = append(p.Prelabeled, idx)
				p.PrelabeledY = append(p.PrelabeledY, []float64{0, 1, 1, 0.5}[rng.Intn(4)])
			case 1:
				yes[hetnet.Key(links[idx].I, links[idx].J)] = true
			}
		}
		p.Oracle = yes
		res, err := core.Train(p, core.Config{Budget: rng.Intn(6), Strategy: active.Random{}, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		m := partition.NewMerger()
		for _, v := range partition.PartVotes(&partition.Part{TrainPos: links[:trainPos]}, links, res) {
			m.Add(v)
		}
		merged := m.Finish()
		var got map[int64]bool
		for idx, l := range links {
			if label, _ := merged.Label(l.I, l.J); label == 0 && res.Y[idx] == 1 && (idx < trainPos || res.QueriedAt(idx)) {
				if got == nil {
					got = make(map[int64]bool)
				}
				got[hetnet.Key(l.I, l.J)] = true
			}
		}
		if want := referenceReconcileFixed(res, links, trainPos); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merge lost %v, reference %v", trial, got, want)
		}
		if len(got) > 0 {
			losing++
		}
	}
	if losing == 0 {
		t.Fatal("no pool fixed two positives on one endpoint")
	}
}
