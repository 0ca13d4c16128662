package oracle

import (
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// Statistical properties of the panel, tolerance-banded like
// TestFlipperFlipRate: majority vote must beat a single labeler,
// and trust must separate honest labelers from adversaries.

// errRate counts how often an oracle diverges from constant truth 1
// over n fresh links offset by base (distinct per seed so panels never
// share link hashes).
func errRate(o interface {
	Label(hetnet.Anchor) float64
}, base, n int) float64 {
	errs := 0
	for i := 0; i < n; i++ {
		if o.Label(hetnet.Anchor{I: base + i, J: base + i + 1}) != 1 {
			errs++
		}
	}
	return float64(errs) / float64(n)
}

func TestMajorityVoteBeatsSingleLabeler(t *testing.T) {
	// A panel of 5 independent flippers at p=0.3 has majority error
	// Σ_{k≥3} C(5,k) p^k (1-p)^{5-k} ≈ 0.163 — about half the single
	// flipper's 0.3. Check the separation across seeds with a band wide
	// enough for n=2000 sampling noise.
	const p, n = 0.3, 2000
	for _, seed := range []int64{1, 7, 42, 2019} {
		single := &Flipper{Name: "solo", Truth: constTruth(1), FlipProb: p, Seed: seed}
		panel, err := Config{Noisy: 5, FlipProb: p, Seed: seed}.Build(constTruth(1))
		if err != nil {
			t.Fatal(err)
		}
		base := int(seed) * 10 * n
		singleErr := errRate(single, base, n)
		panelErr := errRate(panel, base, n)
		if singleErr < 0.25 || singleErr > 0.35 {
			t.Errorf("seed %d: single flipper error %.3f outside the p=0.3 band", seed, singleErr)
		}
		if panelErr < 0.10 || panelErr > 0.22 {
			t.Errorf("seed %d: 5-way majority error %.3f outside the ≈0.163 band", seed, panelErr)
		}
		if panelErr >= singleErr {
			t.Errorf("seed %d: majority error %.3f not below single-labeler %.3f", seed, panelErr, singleErr)
		}
	}
}

func TestMajorityErrorShrinksWithReplicas(t *testing.T) {
	const p, n = 0.3, 2000
	prev := 1.0
	for _, r := range []int{1, 3, 5} {
		panel, err := Config{Noisy: 7, FlipProb: p, Replicas: r, Seed: 11}.Build(constTruth(1))
		if err != nil {
			t.Fatal(err)
		}
		e := errRate(panel, 0, n)
		if e >= prev {
			t.Errorf("R=%d error %.3f did not shrink from %.3f", r, e, prev)
		}
		prev = e
	}
}

func TestTrustSeparatesAdversariesFromHonest(t *testing.T) {
	for _, seed := range []int64{1, 9, 2019} {
		panel, err := Config{Honest: 3, Noisy: 1, FlipProb: 0.2, Adversarial: 1, Seed: seed}.Build(constTruth(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			panel.Label(hetnet.Anchor{I: i, J: i + 1})
		}
		var honestMin, advTrust, noisyTrust float64 = 1, -1, -1
		for _, lt := range panel.TrustScores() {
			switch lt.ID {
			case "adversary-4":
				advTrust = lt.Trust
				if !lt.Distrusted {
					t.Errorf("seed %d: always-lying labeler not distrusted (trust %.3f)", seed, lt.Trust)
				}
			case "noisy-3":
				noisyTrust = lt.Trust
			default:
				if lt.Trust < honestMin {
					honestMin = lt.Trust
				}
				if lt.Distrusted {
					t.Errorf("seed %d: honest labeler %s distrusted", seed, lt.ID)
				}
			}
		}
		// Converged ordering: honest ≈ 1 > noisy ≈ 0.8 > adversary ≈ 0,
		// banded for 300-query evidence.
		if honestMin < 0.9 {
			t.Errorf("seed %d: honest trust %.3f below 0.9", seed, honestMin)
		}
		if noisyTrust < 0.7 || noisyTrust > 0.9 {
			t.Errorf("seed %d: p=0.2 flipper trust %.3f outside [0.7, 0.9]", seed, noisyTrust)
		}
		if advTrust > 0.1 {
			t.Errorf("seed %d: adversary trust %.3f above 0.1", seed, advTrust)
		}
		if !(advTrust < noisyTrust && noisyTrust < honestMin) {
			t.Errorf("seed %d: trust ordering broken: adv %.3f, noisy %.3f, honest %.3f",
				seed, advTrust, noisyTrust, honestMin)
		}
	}
}

func TestColluderPoolFeedsContradictionLedger(t *testing.T) {
	// Colluders fabricate a many-to-one matching; querying across a grid
	// of links must trip the one-to-one check on their claims.
	panel, err := Config{Honest: 3, Colluding: 2, Seed: 3}.Build(constTruth(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			panel.Label(hetnet.Anchor{I: i, J: j})
		}
	}
	rep := panel.Report()
	if rep.Contradictions == 0 {
		t.Fatal("colluding pool produced no ledger entries over a 30×30 grid")
	}
	colluderFlagged := false
	for _, lt := range rep.Trust {
		if (lt.ID == "colluder-3" || lt.ID == "colluder-4") && lt.Contradictions > 0 {
			colluderFlagged = true
		}
	}
	if !colluderFlagged {
		t.Error("no colluder carries ledger contradictions")
	}
	// Honest majority (3 of 5) holds the verdicts at truth, so the
	// panel-level matching stays clean.
	if rep.PanelViolation != 0 {
		t.Errorf("honest majority let %d fabricated matches through", rep.PanelViolation)
	}
}
