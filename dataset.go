package activeiter

import (
	"io"
	"math/rand"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/hetnet"
)

// GeneratorConfig parameterizes the synthetic aligned-network generator
// that substitutes for the paper's Foursquare–Twitter crawl (see
// docs/EXPERIMENTS.md §Dataset).
type GeneratorConfig = datagen.Config

// TinyDataset is the smallest preset — suits unit tests.
func TinyDataset() GeneratorConfig { return datagen.Tiny() }

// SmallDataset is the default experiment scale.
func SmallDataset() GeneratorConfig { return datagen.Small() }

// PaperShapeDataset tracks Table II's ratios at 1/5 linear scale.
func PaperShapeDataset() GeneratorConfig { return datagen.PaperShape() }

// FullScaleDataset reproduces the crawl's user and link magnitudes.
func FullScaleDataset() GeneratorConfig { return datagen.FullScale() }

// XLScaleDataset is ~10× the crawl — the partitioned-alignment stress
// scale.
func XLScaleDataset() GeneratorConfig { return datagen.XLScale() }

// GenerateDataset synthesizes an aligned pair from the configuration.
// Identical configs generate identical pairs.
func GenerateDataset(cfg GeneratorConfig) (*AlignedPair, error) {
	return datagen.Generate(cfg)
}

// WriteAlignedJSON serializes an aligned pair.
func WriteAlignedJSON(pair *AlignedPair, w io.Writer) error { return pair.WriteJSON(w) }

// ReadAlignedJSON deserializes and validates an aligned pair written by
// WriteAlignedJSON.
func ReadAlignedJSON(r io.Reader) (*AlignedPair, error) { return hetnet.ReadAlignedJSON(r) }

// SampleNegatives draws count distinct non-anchor user pairs uniformly —
// the NP-ratio negative pool of the paper's protocol. The rng seeds the
// sampling; use rand.New(rand.NewSource(seed)) for reproducibility.
func SampleNegatives(pair *AlignedPair, count int, rng *rand.Rand) ([]Anchor, error) {
	return eval.SampleNegatives(pair, count, rng)
}

// Metrics reports binary classification quality for an alignment run.
type Metrics struct {
	F1, Precision, Recall, Accuracy float64
	TP, FP, TN, FN                  int
}

// AlignmentResult is the read-side contract shared by a live alignment
// (*PartitionedResult) and a served snapshot (*ServeIndex): final labels
// plus the oracle audit.
type AlignmentResult interface {
	// Label returns the final label of link (i, j) and whether the link
	// was part of the candidate pool.
	Label(i, j int) (float64, bool)
	// WasQueried reports whether (i, j) was labeled by the oracle.
	WasQueried(i, j int) bool
}

// EvaluateAlignment scores a result (a live *PartitionedResult or a
// loaded *ServeIndex) against labeled test pools. Queried links are
// excluded, matching the paper's evaluation fairness rule (their labels
// came from the oracle, not the model).
func EvaluateAlignment(res AlignmentResult, testPos, testNeg []Anchor) Metrics {
	var c eval.Confusion
	score := func(links []Anchor, truth float64) {
		for _, l := range links {
			if res.WasQueried(l.I, l.J) {
				continue
			}
			pred, ok := res.Label(l.I, l.J)
			if !ok {
				pred = 0 // links outside the pool are predicted negative
			}
			c.Add(pred, truth)
		}
	}
	score(testPos, 1)
	score(testNeg, 0)
	return Metrics{
		F1: c.F1(), Precision: c.Precision(), Recall: c.Recall(), Accuracy: c.Accuracy(),
		TP: c.TP, FP: c.FP, TN: c.TN, FN: c.FN,
	}
}
