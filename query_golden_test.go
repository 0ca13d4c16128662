package activeiter

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestQueryOrderGolden pins which links a budgeted run spends its
// queries on, in order, and the anchors it then predicts, for the two
// strategies that rank the unlabeled pool: the fill behind the conflict
// rule and the uncertainty baseline decide which links are asked, so a
// selection kernel that reordered ties would change the model. The
// constants were captured on the commit before both moved from a full
// sort to a bounded selection.
func TestQueryOrderGolden(t *testing.T) {
	pair, err := GenerateDataset(SmallDataset())
	if err != nil {
		t.Fatal(err)
	}
	n := len(pair.Anchors) / 10
	trainPos, testPos := pair.Anchors[:n], pair.Anchors[n:]
	neg, err := SampleNegatives(pair, 10*len(pair.Anchors), rand.New(rand.NewSource(18)))
	if err != nil {
		t.Fatal(err)
	}
	cands := append(append([]Anchor{}, testPos...), neg...)
	want := map[StrategyKind]string{
		StrategyConflict:    "anchors=5142f460aea6a734 queried=50,58,161,89,124,178,157,191,174,441,2073,66,39,180,23,110,25,64,1283,440,1594,933,1010,122,63,142,119,169,80,145,32,148,151,136,86,71,93,46,193,198,",
		StrategyUncertainty: "anchors=4ee04a2724ff728b queried=50,58,161,89,124,178,157,131,191,174,441,66,39,180,23,110,25,181,64,2073,440,1283,77,60,139,34,188,195,1594,933,53,1010,183,150,122,142,63,119,169,80,",
	}
	for _, strategy := range []StrategyKind{StrategyConflict, StrategyUncertainty} {
		al, err := New(pair, Options{Budget: 40, Seed: 1, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		oracle := &recordingOracle{truth: NewTruthOracle(pair), pool: poolIndex(trainPos, cands)}
		res, err := al.Align(trainPos, cands, oracle)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, a := range res.PredictedAnchors() {
			fmt.Fprintf(h, "%d,%d;", a.I, a.J)
		}
		got := fmt.Sprintf("anchors=%016x queried=", h.Sum64())
		for _, idx := range oracle.asked {
			got += fmt.Sprintf("%d,", idx)
		}
		if got != want[strategy] {
			t.Errorf("%s diverges from the parent commit:\n got  %s\n want %s", strategy, got, want[strategy])
		}
	}
}

// recordingOracle answers from the truth and records the pool index of
// every link it is asked, in the order asked.
type recordingOracle struct {
	truth Oracle
	pool  map[Anchor]int
	asked []int
}

func (o *recordingOracle) Label(a Anchor) float64 {
	o.asked = append(o.asked, o.pool[a])
	return o.truth.Label(a)
}

// poolIndex numbers the pool a one-part run trains on: the training
// anchors, then the candidates not seen before, in order.
func poolIndex(trainPos, candidates []Anchor) map[Anchor]int {
	pool := make(map[Anchor]int, len(trainPos)+len(candidates))
	for _, l := range append(append([]Anchor{}, trainPos...), candidates...) {
		if _, ok := pool[l]; !ok {
			pool[l] = len(pool)
		}
	}
	return pool
}
