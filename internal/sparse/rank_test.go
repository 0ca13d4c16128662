package sparse

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// referenceAt is At as it was before the rank index: a binary search
// within the row.
func referenceAt(m *CSR, i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	if k := lo + sort.SearchInts(m.colIdx[lo:hi], j); k < hi && m.colIdx[k] == j {
		return m.val[k]
	}
	return 0
}

// ruleAdmits is the documented index rule, written out independently.
func ruleAdmits(m *CSR) bool {
	return m.NNZ() > 0 && m.NNZ()*64 >= m.rows*m.cols
}

// plantedCSR returns a rows×cols matrix of the given density whose
// non-empty rows also store the word-boundary columns 0, 63, 64, 65 and
// cols-1 (those that exist), each with probability ½; every third row
// is left empty.
func plantedCSR(rng *rand.Rand, rows, cols int, density float64, vals []float64) *CSR {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		if i%3 == 2 {
			continue
		}
		stored := make(map[int]bool)
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				stored[j] = true
			}
		}
		for _, j := range []int{0, 63, 64, 65, cols - 1} {
			if j < cols && rng.Intn(2) == 0 {
				stored[j] = true
			}
		}
		for j := 0; j < cols; j++ {
			if stored[j] {
				b.Add(i, j, vals[rng.Intn(len(vals))])
			}
		}
	}
	return b.Build()
}

// TestRankProbeMatchesMerge: on matrices either side of the index rule,
// with entries on the word boundaries, empty rows on either side and
// products that underflow to zero, the probing Hadamard equals the
// merge and every cell reads as the binary search read it.
func TestRankProbeMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	vals := []float64{1, -2, 3, 0.5, 1e-200, -1e-200, 1e200}
	indexed, plain := 0, 0
	for _, sh := range [][2]int{{1, 1}, {3, 64}, {5, 65}, {9, 66}, {12, 130}, {7, 640}, {40, 1000}} {
		for _, density := range []float64{0, 0.004, 1.0 / 64, 0.03, 0.57, 1} {
			long := plantedCSR(rng, sh[0], sh[1], density, vals)
			if got, want := long.rank() != nil, ruleAdmits(long); got != want {
				t.Fatalf("%v at density %v: indexed %v, rule says %v", long, density, got, want)
			}
			if long.rank() != nil {
				indexed++
			} else {
				plain++
			}
			for i := 0; i < sh[0]; i++ {
				for j := 0; j < sh[1]; j++ {
					if got, want := long.At(i, j), referenceAt(long, i, j); got != want {
						t.Fatalf("%v.At(%d,%d) = %v, want %v", long, i, j, got, want)
					}
				}
			}
			for _, shortDensity := range []float64{0.002, 0.05, 0.6} {
				short := plantedCSR(rng, sh[0], sh[1], shortDensity, vals)
				checkHadamardAgainstReference(t, short, long)
			}
		}
	}
	if indexed == 0 || plain == 0 {
		t.Fatalf("sweep saw %d indexed and %d plain matrices; it must straddle the rule", indexed, plain)
	}
}

// TestRankIndexRuleBoundary: nnz·64 = rows·cols is indexed, one entry
// fewer is not, and an empty matrix never is.
func TestRankIndexRuleBoundary(t *testing.T) {
	build := func(nnz int) *CSR {
		b := NewBuilder(4, 128) // 4·128/64 = 8 entries is the boundary
		for k := 0; k < nnz; k++ {
			b.Add(k%4, 17*k%128, 1)
		}
		return b.Build()
	}
	if m := build(8); m.NNZ() != 8 || m.rank() == nil {
		t.Errorf("%v on the boundary was not indexed", m)
	}
	if m := build(7); m.NNZ() != 7 || m.rank() != nil {
		t.Errorf("%v under the boundary was indexed", m)
	}
	if Zero(0, 0).rank() != nil || Zero(3, 0).rank() != nil || Zero(0, 3).rank() != nil {
		t.Error("an empty matrix was indexed")
	}
}

// TestRankIndexIsNotCarried: the index is derived state of one matrix —
// a clone, a transpose and a FromRaw view over the same arrays start
// without one and build their own.
func TestRankIndexIsNotCarried(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randCSR(rng, 10, 100, 0.5)
	if m.rank() == nil {
		t.Fatal("half-full matrix was not indexed")
	}
	raw, err := FromRaw(m.Raw())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*CSR{"Clone": m.Clone(), "T": m.T(), "FromRaw": raw, "Scale": m.Scale(2)} {
		if c.rankIdx.Load() != nil {
			t.Errorf("%s carried the index over", name)
		}
		r, cols := c.Dims()
		for i := 0; i < r; i++ {
			for j := 0; j < cols; j++ {
				if got, want := c.At(i, j), referenceAt(c, i, j); got != want {
					t.Fatalf("%s.At(%d,%d) = %v, want %v", name, i, j, got, want)
				}
			}
		}
	}
}

// TestRankIndexBuiltOnceUnderRace is the shape of two forks' first
// stacking against one shared attribute count: several goroutines run
// their first Hadamard against the same never-probed matrix at once.
// The index is built exactly once and every product equals the merge.
// Run with -race -count=10.
func TestRankIndexBuiltOnceUnderRace(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	shared := randCSR(rng, 200, 300, 0.57)
	const forks = 4
	shorts := make([]*CSR, forks)
	for k := range shorts {
		shorts[k] = randCSR(rng, 200, 300, 0.01)
		if ruleAdmits(shorts[k]) {
			t.Fatal("the forks' own counts must stay unindexed for the build count to be exact")
		}
	}
	before := mRankBuilds.Value()
	got := make([]*CSR, forks)
	var start, done sync.WaitGroup
	start.Add(1)
	for k := range shorts {
		done.Add(1)
		go func(k int) {
			defer done.Done()
			start.Wait()
			got[k] = Hadamard(shorts[k], shared)
		}(k)
	}
	start.Done()
	done.Wait()
	if n := mRankBuilds.Value() - before; n != 1 {
		t.Errorf("%d index builds for one shared matrix, want 1", n)
	}
	for k := range shorts {
		if !got[k].Equal(referenceHadamard(shorts[k], shared)) {
			t.Errorf("fork %d: product differs from the merge", k)
		}
	}
}

// TestHadamardCountsRowsByRegime: the scrape says which regime ran.
func TestHadamardCountsRowsByRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	dense, sparseA, sparseB := randCSR(rng, 50, 400, 0.6), randCSR(rng, 50, 400, 0.01), randCSR(rng, 50, 400, 0.01)
	pairs := func(a, b *CSR) (n int64) {
		for i := 0; i < a.rows; i++ {
			if a.RowNNZ(i) > 0 && b.RowNNZ(i) > 0 {
				n++
			}
		}
		return n
	}
	merge0, rank0 := mHadamardMerge.Value(), mHadamardRank.Value()
	Hadamard(sparseA, dense)
	if d := mHadamardRank.Value() - rank0; d != pairs(sparseA, dense) || mHadamardMerge.Value() != merge0 {
		t.Errorf("sparse ⊙ dense: %d ranked rows, want %d, and no merged ones", d, pairs(sparseA, dense))
	}
	merge0, rank0 = mHadamardMerge.Value(), mHadamardRank.Value()
	Hadamard(sparseA, sparseB)
	if d := mHadamardMerge.Value() - merge0; d != pairs(sparseA, sparseB) || mHadamardRank.Value() != rank0 {
		t.Errorf("sparse ⊙ sparse: %d merged rows, want %d, and no ranked ones", d, pairs(sparseA, sparseB))
	}
}
