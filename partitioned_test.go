package activeiter

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func sortAnchors(in []Anchor) []Anchor {
	out := append([]Anchor{}, in...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

// Property: a PartitionedAligner with K=1 reproduces the monolithic
// Aligner exactly — same predicted anchors, same labels, same oracle
// audit — with and without active learning.
func TestPartitionedK1IdenticalToMonolithic(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	c := &chainCase{pair: pair, trainPos: trainPos, testPos: testPos, neg: neg}
	for _, budget := range []int{0, 10} {
		c.opts = Options{Budget: budget, Seed: 3, Partitions: 1}
		mono, sharded := trainEverywhere(t, c, c.opts)
		k1 := sharded["partitioned"]
		if got, want := k1.PredictedAnchors(), sortAnchors(mono.PredictedAnchors()); !slices.Equal(got, want) {
			t.Fatalf("budget %d: K=1 predicts %v, monolithic %v", budget, got, want)
		}
		for _, l := range c.candidates() {
			mLab, mOK := mono.Label(l.I, l.J)
			pLab, pOK := k1.Label(l.I, l.J)
			if mOK != pOK || mLab != pLab || mono.WasQueried(l.I, l.J) != k1.WasQueried(l.I, l.J) {
				t.Fatalf("budget %d: link (%d,%d) = %v/%v queried %v vs monolithic %v/%v queried %v",
					budget, l.I, l.J, pLab, pOK, k1.WasQueried(l.I, l.J), mLab, mOK, mono.WasQueried(l.I, l.J))
			}
		}
		if mm, pm := EvaluateAlignment(mono, testPos, neg), EvaluateAlignment(k1, testPos, neg); mm != pm {
			t.Fatalf("budget %d: metrics diverge: %+v vs %+v", budget, pm, mm)
		}
	}
}

// Property: K>1 output respects the global one-to-one constraint and
// stays within ε of the monolithic F1 on the small dataset.
func TestPartitionedSmallDatasetQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("SmallDataset alignment in -short mode")
	}
	pair, err := GenerateDataset(SmallDataset())
	if err != nil {
		t.Fatal(err)
	}
	anchors := pair.Anchors
	nTrain := len(anchors) / 2
	trainPos := anchors[:nTrain]
	testPos := anchors[nTrain:]
	neg, err := SampleNegatives(pair, 10*len(anchors), rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	candidates := append(append([]Anchor{}, testPos...), neg...)

	mono, err := New(pair, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mRes, err := mono.Align(trainPos, candidates, nil)
	if err != nil {
		t.Fatal(err)
	}
	mF1 := EvaluateAlignment(mRes, testPos, neg).F1

	part, err := NewPartitioned(pair, Options{Seed: 9, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	pRes, err := part.Align(trainPos, candidates, nil)
	if err != nil {
		t.Fatal(err)
	}
	seenI, seenJ := map[int]bool{}, map[int]bool{}
	for _, a := range pRes.PredictedAnchors() {
		if seenI[a.I] || seenJ[a.J] {
			t.Fatalf("one-to-one violated at (%d,%d)", a.I, a.J)
		}
		seenI[a.I] = true
		seenJ[a.J] = true
	}
	pF1 := EvaluateAlignment(pRes, testPos, neg).F1
	const eps = 0.08
	if math.Abs(pF1-mF1) > eps {
		t.Errorf("partitioned F1 %.4f drifted more than %.2f from monolithic %.4f", pF1, eps, mF1)
	}
	if len(pRes.Reports) != 4 {
		t.Errorf("%d partition reports, want 4", len(pRes.Reports))
	}
}
