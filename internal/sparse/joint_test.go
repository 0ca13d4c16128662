package sparse

import (
	"math/rand"
	"testing"
)

// separateProducts is the form MatMulHadamard avoids: every aₖ·btₖᵀ
// built, then folded by Hadamard.
func separateProducts(as, bts []*CSR) *CSR {
	acc := referenceMatMul(as[0], bts[0].T())
	for k := 1; k < len(as); k++ {
		acc = referenceHadamard(acc, referenceMatMul(as[k], bts[k].T()))
	}
	return acc
}

// randStack draws n pairs x×mₖ, y×mₖ with values in ±{1..4}; perRow
// bounds how many middles a row of either holds, 0 meaning nearly all of
// 8 to 13.
func randStack(rng *rand.Rand, n, x, y, perRow int) (as, bts []*CSR) {
	for k := 0; k < n; k++ {
		if perRow == 0 {
			m := 8 + rng.Intn(6)
			as = append(as, randCSR(rng, x, m, 0.9))
			bts = append(bts, randCSR(rng, y, m, 0.9))
			continue
		}
		m := 1 + rng.Intn(6)
		ab, bb := NewBuilder(x, m), NewBuilder(y, m)
		for _, side := range []struct {
			b    *Builder
			rows int
		}{{ab, x}, {bb, y}} {
			for i := 0; i < side.rows; i++ {
				for c := rng.Intn(perRow + 1); c > 0; c-- {
					side.b.Add(i, rng.Intn(m), float64(1+rng.Intn(4))*float64(1-2*rng.Intn(2)))
				}
			}
		}
		as = append(as, ab.Build())
		bts = append(bts, bb.Build())
	}
	return as, bts
}

// TestRowKronIdentity checks (A₁B₁)⊙(A₂B₂)⊙… = (A₁⊛A₂⊛…)·(B₁⊛B₂⊛…)
// on the joint factors themselves, whatever MatMulHadamard's cost
// comparison would have decided: multi-valued rows, empty rows, middles
// one side never stores, two and three stacked pairs.
func TestRowKronIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		as, bts := randStack(rng, 2+trial%2, rng.Intn(12), rng.Intn(12), trial%4)
		ja, jbT := as[0], bts[0]
		for k := 1; k < len(as); k++ {
			ja, jbT = rowKron(ja, as[k], jbT, bts[k])
			checkWellFormed(t, ja)
			checkWellFormed(t, jbT)
		}
		if got, want := MatMul(ja, jbT.T()), separateProducts(as, bts); !got.Equal(want) {
			t.Fatalf("trial %d: joint product\n %v\nseparate products\n %v", trial, got.ToDense(), want.ToDense())
		}
	}
}

// TestMatMulHadamardChoosesByFlops: whenever the fused form is taken it
// equals the separate products; single-valued middles always take it
// and dense multi-valued middles never do.
func TestMatMulHadamardChoosesByFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct {
		perRow int
		want   int // stacks of 50 that must fuse, -1 for either way
	}{{perRow: 1, want: 50}, {perRow: 0, want: 0}, {perRow: 2, want: -1}} {
		fused := 0
		for trial := 0; trial < 50; trial++ {
			as, bts := randStack(rng, 2+trial%2, 20+rng.Intn(20), 20+rng.Intn(20), tc.perRow)
			got, ok := MatMulHadamard(as, bts)
			if !ok {
				continue
			}
			fused++
			checkWellFormed(t, got)
			if want := separateProducts(as, bts); !got.Equal(want) {
				t.Fatalf("perRow %d trial %d: fused product differs from the separate products", tc.perRow, trial)
			}
		}
		if tc.want >= 0 && fused != tc.want {
			t.Errorf("perRow %d: %d of 50 stacks fused, want %d", tc.perRow, fused, tc.want)
		}
	}
}

func TestMatMulHadamardPanicsOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":  func() { MatMulHadamard(nil, nil) },
		"uneven": func() { MatMulHadamard([]*CSR{Zero(2, 3)}, nil) },
		"inner":  func() { MatMulHadamard([]*CSR{Zero(2, 3)}, []*CSR{Zero(2, 4)}) },
		"stack":  func() { MatMulHadamard([]*CSR{Zero(2, 3), Zero(5, 3)}, []*CSR{Zero(2, 3), Zero(2, 3)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
