package sparse

import (
	"math/rand"
	"testing"
)

// separateProducts is the form JointFactors avoids: every aₖ·btₖᵀ built,
// then folded by Hadamard.
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

// colLengths returns how many entries each column of m stores.
func colLengths(m *CSR) []float64 {
	n := make([]float64, m.cols)
	for _, j := range m.colIdx {
		n[j]++
	}
	return n
}

// TestRowKronIdentity checks (A₁B₁)⊙(A₂B₂)⊙… = (A₁⊛A₂⊛…)·(B₁⊛B₂⊛…)
// on the joint factors themselves, whatever JointFactors' cost
// comparison would have decided: multi-valued rows, empty rows, middles
// one side never stores, two and three stacked pairs. It also checks the
// tuple and column counts the comparison reads against the built joins.
func TestRowKronIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		as, bts := randStack(rng, 2+trial%2, rng.Intn(12), rng.Intn(12), trial%4)
		ja, jbT := as[0], bts[0]
		for k := 1; k < len(as); k++ {
			tuples, aCols := jointTuples(ja, as[k])
			bCols := kronColCounts(jbT, bts[k], tuples)
			ja, jbT = kron(ja, as[k], tuples), kron(jbT, bts[k], tuples)
			checkWellFormed(t, ja)
			checkWellFormed(t, jbT)
			for j, n := range colLengths(ja) {
				if aCols[j] != n {
					t.Fatalf("trial %d: a-side tuple %d stored by %v rows, jointTuples says %v", trial, j, n, aCols[j])
				}
			}
			for j, n := range colLengths(jbT) {
				if bCols[j] != n {
					t.Fatalf("trial %d: b-side tuple %d stored by %v rows, kronColCounts says %v", trial, j, n, bCols[j])
				}
			}
		}
		if got, want := MatMul(ja, jbT.T()), separateProducts(as, bts); !got.Equal(want) {
			t.Fatalf("trial %d: joint product\n %v\nseparate products\n %v", trial, got.ToDense(), want.ToDense())
		}
	}
}

// TestJointFactorsChoosesByFlops: whenever the joint form is taken its
// product equals the separate products; single-valued middles always
// take it and dense multi-valued middles never do.
func TestJointFactorsChoosesByFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct {
		perRow int
		want   int // stacks of 50 that must join, -1 for either way
	}{{perRow: 1, want: 50}, {perRow: 0, want: 0}, {perRow: 2, want: -1}} {
		joined := 0
		for trial := 0; trial < 50; trial++ {
			as, bts := randStack(rng, 2+trial%2, 20+rng.Intn(20), 20+rng.Intn(20), tc.perRow)
			ja, jb, ok := JointFactors(as, bts)
			if !ok {
				if ja != nil || jb != nil {
					t.Fatalf("perRow %d trial %d: declined but returned factors", tc.perRow, trial)
				}
				continue
			}
			joined++
			got := Chain(ja, jb)
			checkWellFormed(t, got)
			if want := separateProducts(as, bts); !got.Equal(want) {
				t.Fatalf("perRow %d trial %d: joint product differs from the separate products", tc.perRow, trial)
			}
		}
		if tc.want >= 0 && joined != tc.want {
			t.Errorf("perRow %d: %d of 50 stacks joined, want %d", tc.perRow, joined, tc.want)
		}
	}
}

func TestJointFactorsPanicsOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":  func() { JointFactors(nil, nil) },
		"uneven": func() { JointFactors([]*CSR{Zero(2, 3)}, nil) },
		"inner":  func() { JointFactors([]*CSR{Zero(2, 3)}, []*CSR{Zero(2, 4)}) },
		"stack":  func() { JointFactors([]*CSR{Zero(2, 3), Zero(5, 3)}, []*CSR{Zero(2, 3), Zero(2, 3)}) },
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

// jointChainFuzzSeeds is FuzzJointChain's seed corpus: (seed, stack,
// x, y, perRow). perRow 1 joins, 0 declines, 2 and 3 go either way.
var jointChainFuzzSeeds = [][5]int{
	{1, 0, 20, 20, 1}, {2, 1, 12, 9, 1}, {3, 0, 20, 20, 0}, {4, 1, 6, 14, 2},
	{5, 0, 0, 5, 1}, {6, 0, 23, 1, 3}, {7, 1, 16, 16, 2}, {8, 0, 5, 0, 1},
}

// jointChainCase derives one fuzz input's operands: a stack of two or
// three pairs between x and y, a left factor L into x and a right factor
// R out of y, all integer-valued.
func jointChainCase(seed int64, stack, x, y, perRow uint8) (l *CSR, as, bts []*CSR, r *CSR) {
	rng := rand.New(rand.NewSource(seed))
	xs, ys := int(x%24), int(y%24)
	as, bts = randStack(rng, 2+int(stack%2), xs, ys, int(perRow%4))
	l = randCSR(rng, 1+rng.Intn(8), xs, 0.3)
	r = randCSR(rng, ys, 1+rng.Intn(8), 0.3)
	return l, as, bts, r
}

// FuzzJointChain: whenever JointFactors accepts a stack, chaining its two
// factors between L and R equals chaining the Hadamard of the separate
// products there, bit for bit — whichever association Chain picks; when
// it declines, it returns no factors.
func FuzzJointChain(f *testing.F) {
	for _, s := range jointChainFuzzSeeds {
		f.Add(int64(s[0]), uint8(s[1]), uint8(s[2]), uint8(s[3]), uint8(s[4]))
	}
	f.Fuzz(func(t *testing.T, seed int64, stack, x, y, perRow uint8) {
		l, as, bts, r := jointChainCase(seed, stack, x, y, perRow)
		ja, jb, ok := JointFactors(as, bts)
		if !ok {
			if ja != nil || jb != nil {
				t.Fatal("declined but returned factors")
			}
			return
		}
		checkWellFormed(t, ja)
		checkWellFormed(t, jb)
		stacked := MatMul(as[0], bts[0].T())
		for k := 1; k < len(as); k++ {
			stacked = Hadamard(stacked, MatMul(as[k], bts[k].T()))
		}
		got, want := Chain(l, ja, jb, r), Chain(l, stacked, r)
		checkWellFormed(t, got)
		if !got.Equal(want) {
			t.Fatalf("Chain(L, JA, JB, R)\n %v\nChain(L, stacked, R)\n %v", got.ToDense(), want.ToDense())
		}
	})
}

// TestFuzzJointChainCorpusReachesBothSides keeps the seed corpus honest:
// some inputs must join and some must decline.
func TestFuzzJointChainCorpusReachesBothSides(t *testing.T) {
	joined, declined := 0, 0
	for _, s := range jointChainFuzzSeeds {
		_, as, bts, _ := jointChainCase(int64(s[0]), uint8(s[1]), uint8(s[2]), uint8(s[3]), uint8(s[4]))
		if _, _, ok := JointFactors(as, bts); ok {
			joined++
		} else {
			declined++
		}
	}
	if joined == 0 || declined == 0 {
		t.Errorf("seed corpus joined %d and declined %d stacks; it must reach both", joined, declined)
	}
}
