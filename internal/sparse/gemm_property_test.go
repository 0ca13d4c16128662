package sparse

import (
	"math/rand"
	"sync"
	"testing"
)

// randCSR builds a random r×c matrix with the given density and values
// in {-2..2}\{0} so products can cancel.
func randCSR(rng *rand.Rand, r, c int, density float64) *CSR {
	b := NewBuilder(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				v := float64(rng.Intn(4) + 1)
				if rng.Intn(2) == 0 {
					v = -v
				}
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

// checkWellFormed asserts CSR invariants: strictly increasing columns
// per row and no stored zeros — or, for a block, a byte per cell, no
// compressed arrays, and nnz its non-zero cells.
func checkWellFormed(t *testing.T, m *CSR) {
	t.Helper()
	if m.block != nil {
		nz := 0
		for i := 0; i < m.rows; i++ {
			n := 0
			for _, v := range m.blockRow(i) {
				if v != 0 {
					n++
				}
			}
			if n != m.rowNNZ[i] {
				t.Fatalf("block row %d: %d non-zero cells, rowNNZ says %d", i, n, m.rowNNZ[i])
			}
			nz += n
		}
		if len(m.block) != m.rows*m.cols || len(m.rowNNZ) != m.rows || m.rowPtr != nil || m.colIdx != nil || m.val != nil || nz != m.nnz {
			t.Fatalf("block %dx%d: %d bytes, %d row counts, compressed arrays %v/%v/%v, nnz %d of %d non-zero cells",
				m.rows, m.cols, len(m.block), len(m.rowNNZ), m.rowPtr != nil, m.colIdx != nil, m.val != nil, m.nnz, nz)
		}
		return
	}
	for i := 0; i < m.rows; i++ {
		prev := -1
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if m.colIdx[k] <= prev {
				t.Fatalf("row %d: columns not strictly increasing (%d after %d)", i, m.colIdx[k], prev)
			}
			if m.val[k] == 0 {
				t.Fatalf("row %d col %d: explicit zero stored", i, m.colIdx[k])
			}
			prev = m.colIdx[k]
		}
	}
}

// TestMatMulPooledPropertyRandom sweeps shapes and densities, checking
// the pooled Gustavson kernel against the dense reference and the
// parallel variant against the serial one, including ordering
// invariants. The density sweep crosses the dense-span/sorted
// compaction threshold both ways.
func TestMatMulPooledPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{{1, 1, 1}, {3, 5, 4}, {17, 9, 23}, {64, 64, 64}, {70, 1, 70}, {128, 40, 8}}
	densities := []float64{0.01, 0.1, 0.5, 0.95}
	for _, sh := range shapes {
		for _, d := range densities {
			a := randCSR(rng, sh[0], sh[1], d)
			b := randCSR(rng, sh[1], sh[2], d)
			serial := MatMul(a, b)
			checkWellFormed(t, serial)
			if !sliceEq(serial.ToDense(), denseMul(a, b), 1e-12) {
				t.Fatalf("shape %v density %v: MatMul differs from dense reference", sh, d)
			}
			par := MatMulParallel(a, b)
			checkWellFormed(t, par)
			if !serial.Equal(par) {
				t.Fatalf("shape %v density %v: MatMulParallel differs from MatMul", sh, d)
			}
		}
	}
}

// TestMatMulPoolReuseUnderConcurrency reuses pooled workspaces from
// many goroutines with mixed column counts — generation stamping must
// keep rows independent.
func TestMatMulPoolReuseUnderConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type job struct{ a, b, want *CSR }
	var jobs []job
	for k := 0; k < 24; k++ {
		r, inner, c := 5+rng.Intn(40), 1+rng.Intn(30), 1+rng.Intn(60)
		a := randCSR(rng, r, inner, 0.2)
		b := randCSR(rng, inner, c, 0.2)
		jobs = append(jobs, job{a, b, MatMul(a, b)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				j := jobs[(g*10+rep)%len(jobs)]
				if got := MatMul(j.a, j.b); !got.Equal(j.want) {
					t.Errorf("goroutine %d rep %d: pooled product mismatch", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestChainCostAwareMatchesLeftToRight checks that flop-ordered
// association returns exactly the left-to-right product for random
// chains of compatible matrices.
func TestChainCostAwareMatchesLeftToRight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		dims := make([]int, n+1)
		for i := range dims {
			dims[i] = 1 + rng.Intn(30)
		}
		ms := make([]*CSR, n)
		for i := 0; i < n; i++ {
			ms[i] = randCSR(rng, dims[i], dims[i+1], 0.15)
		}
		want := ms[0]
		for _, m := range ms[1:] {
			want = MatMul(want, m)
		}
		got := Chain(ms...)
		checkWellFormed(t, got)
		if !got.Equal(want) {
			t.Fatalf("trial %d dims %v: Chain differs from left-to-right product", trial, dims)
		}
	}
}

// TestChainPrefersCheapAssociation pins the cost model on an
// asymmetric chain: with A dense-ish and B·C tiny, the flop-aware order
// must still produce the correct product (the cost choice is internal,
// correctness is the contract).
func TestChainPrefersCheapAssociation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randCSR(rng, 40, 40, 0.6)
	b := randCSR(rng, 40, 3, 0.1)
	c := randCSR(rng, 3, 50, 0.1)
	if fAB, fBC := spgemmFlops(a, b), spgemmFlops(b, c); fBC >= fAB {
		t.Fatalf("fixture broken: flops(b,c)=%v should undercut flops(a,b)=%v", fBC, fAB)
	}
	want := MatMul(MatMul(a, b), c)
	if got := Chain(a, b, c); !got.Equal(want) {
		t.Fatal("cost-aware Chain changed the product value")
	}
}
