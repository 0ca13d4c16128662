package oracle

import (
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// constTruth is a ground-truth stand-in answering the same label for
// every link.
type constTruth float64

func (c constTruth) Label(hetnet.Anchor) float64 { return float64(c) }

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"honest pool", Config{Honest: 3}, true},
		{"mixed pool", Config{Honest: 2, Noisy: 2, FlipProb: 0.3, Adversarial: 1, Colluding: 2, Replicas: 5}, true},
		{"empty pool", Config{}, false},
		{"negative count", Config{Honest: -1, Noisy: 2}, false},
		{"flip prob 1", Config{Noisy: 2, FlipProb: 1}, false},
		{"negative flip prob", Config{Noisy: 2, FlipProb: -0.1}, false},
		{"negative replicas", Config{Honest: 2, Replicas: -1}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: error expected", tc.name)
		}
	}
}

func TestPoolIDsStableAndOrdered(t *testing.T) {
	cfg := Config{Honest: 1, Noisy: 2, FlipProb: 0.2, Adversarial: 1, Colluding: 2, Seed: 9}
	pool := cfg.Pool(constTruth(1))
	want := []string{"honest-0", "noisy-1", "noisy-2", "adversary-3", "colluder-4", "colluder-5"}
	if len(pool) != len(want) {
		t.Fatalf("pool size %d, want %d", len(pool), len(want))
	}
	for i, w := range want {
		if pool[i].ID() != w {
			t.Errorf("pool[%d].ID() = %q, want %q", i, pool[i].ID(), w)
		}
	}
}

func TestBuildRejectsNilTruth(t *testing.T) {
	if _, err := (Config{Honest: 1}).Build(nil); err == nil {
		t.Fatal("Build with nil truth must fail")
	}
	if _, err := (Config{}).Build(constTruth(1)); err == nil {
		t.Fatal("Build with empty pool must fail")
	}
}

func TestFlipperFlipRate(t *testing.T) {
	f := &Flipper{Name: "noisy-0", Truth: constTruth(1), FlipProb: 0.3, Seed: 5}
	flips, n := 0, 5000
	for i := 0; i < n; i++ {
		if f.Label(hetnet.Anchor{I: i, J: i + 1}) == 0 {
			flips++
		}
	}
	rate := float64(flips) / float64(n)
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("flip rate = %.3f, want ≈ 0.3", rate)
	}
}

func TestFlipperDeterministicPerLink(t *testing.T) {
	f := &Flipper{Name: "noisy-0", Truth: constTruth(1), FlipProb: 0.5, Seed: 9}
	a := hetnet.Anchor{I: 3, J: 7}
	first := f.Label(a)
	for i := 0; i < 10; i++ {
		if f.Label(a) != first {
			t.Fatal("repeated queries must agree")
		}
	}
}

func TestFlipperSeedsDecorrelate(t *testing.T) {
	// Two flippers from one Config get distinct seeds and must err on
	// different links — that independence is what majority vote buys
	// its error reduction with.
	cfg := Config{Noisy: 2, FlipProb: 0.5, Seed: 3}
	pool := cfg.Pool(constTruth(1))
	same, n := 0, 1000
	for i := 0; i < n; i++ {
		a := hetnet.Anchor{I: i, J: i + 1}
		if pool[0].Label(a) == pool[1].Label(a) {
			same++
		}
	}
	if same == n {
		t.Error("sibling flippers answered identically on every link")
	}
}

func TestAdversaryAlwaysLies(t *testing.T) {
	ad := &Adversary{Name: "adversary-0", Truth: constTruth(1)}
	for i := 0; i < 50; i++ {
		if ad.Label(hetnet.Anchor{I: i, J: i}) != 0 {
			t.Fatal("adversary must negate the truth")
		}
	}
}

func TestColludersAgreeWithEachOther(t *testing.T) {
	a := &Colluder{Name: "colluder-0", GroupSeed: 11}
	b := &Colluder{Name: "colluder-1", GroupSeed: 11}
	other := &Colluder{Name: "stranger", GroupSeed: 12}
	yes, diverged := 0, 0
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			l := hetnet.Anchor{I: i, J: j}
			if a.Label(l) != b.Label(l) {
				t.Fatalf("same-group colluders disagree at (%d,%d)", i, j)
			}
			if a.Label(l) == 1 {
				yes++
			}
			if a.Label(l) != other.Label(l) {
				diverged++
			}
		}
	}
	if yes == 0 {
		t.Error("colluders never pushed their fabricated matching")
	}
	if diverged == 0 {
		t.Error("different group seeds should fabricate different matchings")
	}
}

func TestColluderMatchingIsManyToOne(t *testing.T) {
	// The fabricated matching claims every j ≡ t(i) (mod m) for user i —
	// many-to-one on both sides, which is what the contradiction ledger
	// catches.
	c := &Colluder{Name: "colluder-0", GroupSeed: 7}
	multi := false
	for i := 0; i < 20 && !multi; i++ {
		claims := 0
		for j := 0; j < 100; j++ {
			if c.Label(hetnet.Anchor{I: i, J: j}) == 1 {
				claims++
			}
		}
		multi = claims > 1
	}
	if !multi {
		t.Error("colluder's matching is one-to-one; ledger has nothing to catch")
	}
}

func TestPoolIDsDisjointAcrossKinds(t *testing.T) {
	cfg := Config{Honest: 2, Noisy: 2, FlipProb: 0.1, Adversarial: 2, Colluding: 2, Seed: 1}
	seen := map[string]bool{}
	for _, l := range cfg.Pool(constTruth(0)) {
		if seen[l.ID()] {
			t.Fatalf("duplicate labeler ID %q", l.ID())
		}
		if strings.TrimSpace(l.ID()) == "" {
			t.Fatal("empty labeler ID")
		}
		seen[l.ID()] = true
	}
}
