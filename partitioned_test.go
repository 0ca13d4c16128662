package activeiter

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
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

// Property: one part reproduces the bare training loop exactly — the
// whole pool through core.Train on a fresh counter gives the same
// labels, scores, oracle audit and weights, and its positives are the
// predicted anchors — with and without active learning.
func TestPartitionedK1IdenticalToMonolithic(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	c := &chainCase{pair: pair, trainPos: trainPos, testPos: testPos, neg: neg}
	for _, budget := range []int{0, 10} {
		c.opts = Options{Budget: budget, Seed: 3, Partitions: 1}
		k1 := trainEverywhere(t, c, c.opts)["partitioned"]

		train, err := c.opts.resolve()
		if err != nil {
			t.Fatal(err)
		}
		counter, err := metadiag.NewCounter(pair)
		if err != nil {
			t.Fatal(err)
		}
		counter.SetAnchors(trainPos)
		part := &partition.Part{TrainPos: trainPos, Candidates: c.candidates(), Budget: budget}
		prep, err := partition.PreparePart(counter, part, train.Features)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := prep.Train(part, train.Core, NewTruthOracle(pair))
		if err != nil {
			t.Fatal(err)
		}
		var positives []Anchor
		for idx, l := range prep.Links {
			if mono.Y[idx] == 1 {
				positives = append(positives, l)
			}
			lab, ok := k1.Label(l.I, l.J)
			score, hasScore := k1.Score(l.I, l.J)
			sameScore := hasScore == !math.IsNaN(mono.Scores[idx]) && (!hasScore || math.Float64bits(score) == math.Float64bits(mono.Scores[idx]))
			if !ok || lab != mono.Y[idx] || k1.WasQueried(l.I, l.J) != mono.QueriedAt(idx) || !sameScore {
				t.Fatalf("budget %d: link (%d,%d) = %v/%v score %v queried %v vs the training loop's %v score %v queried %v",
					budget, l.I, l.J, lab, ok, score, k1.WasQueried(l.I, l.J), mono.Y[idx], mono.Scores[idx], mono.QueriedAt(idx))
			}
		}
		if got, want := k1.PredictedAnchors(), sortAnchors(positives); !slices.Equal(got, want) {
			t.Fatalf("budget %d: K=1 predicts %v, the training loop %v", budget, got, want)
		}
		if len(k1.Entries()) != len(prep.Links) || k1.QueryCount() != mono.QueryCount() || !slices.Equal(k1.Weights(), mono.W) {
			t.Fatalf("budget %d: pool, query count or weights diverge from the training loop", budget)
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
