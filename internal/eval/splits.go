package eval

import (
	"fmt"
	"math/rand"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// SampleNegatives draws count distinct non-anchor user pairs uniformly
// from H \ L⁺ = U⁽¹⁾×U⁽²⁾ minus the ground-truth anchors — the paper's
// NP-ratio negative pool (count = θ·|L⁺|). Rejection sampling is
// appropriate because |H| vastly exceeds count in every configuration.
func SampleNegatives(pair *hetnet.AlignedPair, count int, rng *rand.Rand) ([]hetnet.Anchor, error) {
	n1 := pair.G1.NodeCount(pair.AnchorType)
	n2 := pair.G2.NodeCount(pair.AnchorType)
	capacity := n1*n2 - len(pair.Anchors)
	if count > capacity {
		return nil, fmt.Errorf("eval: cannot sample %d negatives from %d available non-anchor pairs", count, capacity)
	}
	truth := pair.AnchorSet()
	seen := make(map[int64]bool, count)
	out := make([]hetnet.Anchor, 0, count)
	for len(out) < count {
		i, j := rng.Intn(n1), rng.Intn(n2)
		k := hetnet.Key(i, j)
		if truth[k] || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, hetnet.Anchor{I: i, J: j})
	}
	return out, nil
}

// Split is one train/test partition of the labeled pools under the
// paper's protocol: one fold trains, the remaining k−1 folds test, and
// the sample-ratio γ subsamples the training fold.
type Split struct {
	// Fold is the index of the training fold.
	Fold int
	// TrainPos is L⁺: the labeled positive anchors available to the
	// model (after γ-subsampling).
	TrainPos []hetnet.Anchor
	// TrainNeg is the labeled negative sample available to supervised
	// baselines (after γ-subsampling). PU methods ignore the labels but
	// the links remain in the unlabeled pool.
	TrainNeg []hetnet.Anchor
	// TestPos and TestNeg are the evaluation pools.
	TestPos, TestNeg []hetnet.Anchor
}

// ScoreTest scores a trained model on test pools: the confusion matrix
// of its final labels over testPos (truth 1) and testNeg (truth 0).
// label returns a link's final label and whether the link was in the
// candidate pool; a link outside it is predicted 0. Links the oracle
// labelled during training (queried) are left out: their labels were
// given, not predicted (Section IV-B-3).
func ScoreTest(testPos, testNeg []hetnet.Anchor, label func(i, j int) (float64, bool), queried func(i, j int) bool) Confusion {
	var c Confusion
	add := func(links []hetnet.Anchor, truth float64) {
		for _, l := range links {
			if queried(l.I, l.J) {
				continue
			}
			pred, ok := label(l.I, l.J)
			if !ok {
				pred = 0
			}
			c.Add(pred, truth)
		}
	}
	add(testPos, 1)
	add(testNeg, 0)
	return c
}

// KFoldSplits rotates k folds over the positive and negative pools:
// split f trains on fold f and tests on the others. sampleRatio ∈ (0,1]
// keeps that fraction of the training fold (the paper's γ), preserving
// the positive:negative ratio. Pools are shuffled once with rng before
// folding, so a fixed seed gives a reproducible protocol.
func KFoldSplits(pos, neg []hetnet.Anchor, k int, sampleRatio float64, rng *rand.Rand) ([]Split, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: need k ≥ 2 folds, got %d", k)
	}
	if len(pos) < k {
		return nil, fmt.Errorf("eval: %d positives cannot fill %d folds", len(pos), k)
	}
	if sampleRatio <= 0 || sampleRatio > 1 {
		return nil, fmt.Errorf("eval: sample ratio %v outside (0,1]", sampleRatio)
	}
	posSh := shuffled(pos, rng)
	negSh := shuffled(neg, rng)
	posFolds := partition(posSh, k)
	negFolds := partition(negSh, k)
	splits := make([]Split, k)
	for f := 0; f < k; f++ {
		s := Split{Fold: f}
		for g := 0; g < k; g++ {
			if g == f {
				continue
			}
			s.TestPos = append(s.TestPos, posFolds[g]...)
			s.TestNeg = append(s.TestNeg, negFolds[g]...)
		}
		s.TrainPos = subsample(posFolds[f], sampleRatio)
		s.TrainNeg = subsample(negFolds[f], sampleRatio)
		if len(s.TrainPos) == 0 {
			return nil, fmt.Errorf("eval: fold %d has no training positives after γ=%v", f, sampleRatio)
		}
		splits[f] = s
	}
	return splits, nil
}

func shuffled(in []hetnet.Anchor, rng *rand.Rand) []hetnet.Anchor {
	out := make([]hetnet.Anchor, len(in))
	copy(out, in)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func partition(in []hetnet.Anchor, k int) [][]hetnet.Anchor {
	out := make([][]hetnet.Anchor, k)
	for i, a := range in {
		out[i%k] = append(out[i%k], a)
	}
	return out
}

// subsample keeps the leading ceil(ratio·n) elements (input is already
// shuffled); ratio 1 keeps everything.
func subsample(in []hetnet.Anchor, ratio float64) []hetnet.Anchor {
	if ratio >= 1 {
		return in
	}
	n := int(float64(len(in))*ratio + 0.5)
	if n < 1 && len(in) > 0 {
		n = 1
	}
	return in[:n]
}
