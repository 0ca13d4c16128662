package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTopKPerRowKnown(t *testing.T) {
	m := FromDense(2, 4, []float64{
		5, 1, 3, 2,
		0, 7, 0, 7,
	})
	top2 := m.TopKPerRow(2)
	want := FromDense(2, 4, []float64{
		5, 0, 3, 0,
		0, 7, 0, 7,
	})
	if !top2.Equal(want) {
		t.Errorf("TopK(2) = %v, want %v", top2.ToDense(), want.ToDense())
	}
}

func TestTopKPerRowEdgeCases(t *testing.T) {
	m := FromDense(2, 3, []float64{1, 2, 3, 0, 0, 0})
	if got := m.TopKPerRow(0); got.NNZ() != 0 {
		t.Error("k=0 should be empty")
	}
	if got := m.TopKPerRow(10); !got.Equal(m) {
		t.Error("k beyond row width should keep everything")
	}
	z := Zero(3, 3)
	if got := z.TopKPerRow(2); got.NNZ() != 0 {
		t.Error("empty matrix should stay empty")
	}
}

func TestTopKPerRowTieBreak(t *testing.T) {
	m := FromDense(1, 3, []float64{4, 4, 4})
	got := m.TopKPerRow(2)
	// Ties keep the smaller column indices.
	if got.At(0, 0) != 4 || got.At(0, 1) != 4 || got.At(0, 2) != 0 {
		t.Errorf("tie-break wrong: %v", got.ToDense())
	}
}

// Property: each row of TopK keeps exactly min(k, rowNNZ) entries and
// every kept value is ≥ every dropped value.
func TestTopKPerRowProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 1+rng.Intn(10), 1+rng.Intn(12), 0.5)
		k := 1 + rng.Intn(5)
		top := m.TopKPerRow(k)
		for i := 0; i < m.Rows(); i++ {
			wantN := m.RowNNZ(i)
			if wantN > k {
				wantN = k
			}
			if top.RowNNZ(i) != wantN {
				return false
			}
			minKept := 1e18
			kept := make(map[int]bool)
			top.Row(i, func(j int, v float64) {
				kept[j] = true
				if v < minKept {
					minKept = v
				}
			})
			bad := false
			m.Row(i, func(j int, v float64) {
				if !kept[j] && v > minKept {
					bad = true
				}
			})
			if bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// referenceTopKPerRow is TopKPerRow as it stood before the typed
// selection: copy each row, sort.Slice it by (value desc, column asc),
// cut at k, re-sort by column. Kept here as the reference the kernel is
// checked against; defined only for rows without NaN. Rows are read
// through rowOf, so a block operand — a product of small non-negative
// integers is built as one — is read like any other.
func referenceTopKPerRow(m *CSR, k int) *CSR {
	out := &CSR{rows: m.rows, cols: m.cols, rowPtr: make([]int, m.rows+1)}
	if k <= 0 {
		return out
	}
	type entry struct {
		j int
		v float64
	}
	var buf []entry
	var rb rowBuf
	for i := 0; i < m.rows; i++ {
		buf = buf[:0]
		cols, vals := m.rowOf(i, &rb)
		for p, j := range cols {
			buf = append(buf, entry{j: j, v: vals[p]})
		}
		sort.Slice(buf, func(a, b int) bool {
			if buf[a].v != buf[b].v {
				return buf[a].v > buf[b].v
			}
			return buf[a].j < buf[b].j
		})
		keep := buf
		if len(keep) > k {
			keep = keep[:k]
		}
		sort.Slice(keep, func(a, b int) bool { return keep[a].j < keep[b].j })
		for _, e := range keep {
			out.colIdx = append(out.colIdx, e.j)
			out.val = append(out.val, e.v)
		}
		out.rowPtr[i+1] = len(out.val)
	}
	return out
}

// checkTopKAgainstReference asserts, for one operand pair and one k,
// that TopKPerRow equals the reference on a, b and a·b.
func checkTopKAgainstReference(t *testing.T, a, b *CSR, k int) {
	t.Helper()
	for _, m := range []*CSR{a, b, MatMulParallel(a, b)} {
		got := m.TopKPerRow(k)
		checkWellFormed(t, got)
		if want := referenceTopKPerRow(m, k); !got.Equal(want) {
			t.Fatalf("%v k=%d: TopKPerRow differs from reference\n got %v\nwant %v", m, k, got.ToDense(), want.ToDense())
		}
	}
}

// TestTopKPerRowOfProductsMatchesReference sweeps shapes, densities
// from mostly-empty rows to near dense, and every k regime over random
// operands and their products. randCSR draws values from ±{1..4}, so
// products tie and cancel to exactly zero constantly.
func TestTopKPerRowOfProductsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	shapes := [][3]int{{1, 1, 1}, {3, 5, 4}, {17, 9, 23}, {63, 20, 40}, {64, 64, 64}, {70, 1, 70}, {130, 40, 8}, {257, 33, 90}}
	densities := []float64{0.01, 0.1, 0.5, 0.95}
	for _, sh := range shapes {
		for _, d := range densities {
			a := randCSR(rng, sh[0], sh[1], d)
			b := randCSR(rng, sh[1], sh[2], d)
			for _, k := range []int{-3, 0, 1, 2, 5, 16, sh[2] - 1, sh[2], sh[2] + 7, math.MaxInt} {
				checkTopKAgainstReference(t, a, b, k)
			}
		}
	}

	// Near-dense rows at k = 16: at least 40 % of every product row is
	// live, so the selection trims many times per row — on tied small
	// integers and on real values alike.
	for _, vals := range []func() float64{nil, rng.Float64} {
		a, b := randCSR(rng, 90, 30, 0.5), randCSR(rng, 30, 200, 0.5)
		if vals != nil {
			a, b = valuedCSR(rng, 90, 30, 0.5, vals), valuedCSR(rng, 30, 200, 0.5, vals)
		}
		prod := MatMulParallel(a, b)
		for i := 0; i < prod.Rows(); i++ {
			if live := prod.RowNNZ(i); 10*live < 4*prod.Cols() {
				t.Fatalf("near-dense fixture row %d has %d of %d cells live", i, live, prod.Cols())
			}
		}
		checkTopKAgainstReference(t, a, b, 16)
	}

	// Ties straddling the threshold: row 0 of b holds ten 5s, twenty 3s
	// and ten 1s in shuffled columns, so the 16th best is a 3 and only
	// the six smallest-column 3s make the cut; row 1 doubles it through
	// a second path, so the tie is also one a sum produces.
	tie := NewBuilder(2, 40)
	for n, j := range rng.Perm(40) {
		v := []float64{5, 3, 3, 1}[n/10]
		tie.Add(0, j, v)
		tie.Add(1, j, v)
	}
	b := tie.Build()
	a := FromDense(3, 2, []float64{1, 0, 1, 1, 0, 2})
	for _, k := range []int{1, 10, 11, 15, 16, 29, 30, 31} {
		checkTopKAgainstReference(t, a, b, k)
	}

	// Fewer than k eligible cells: the two paths of row 0 cancel on two
	// of the four columns they touch, row 1 has three cells, row 2 none.
	a = FromDense(3, 2, []float64{1, 1, 0, 1, 0, 0})
	b = FromDense(2, 5, []float64{2, 3, 0, 1, 0, -2, -3, 4, 0, 0})
	checkTopKAgainstReference(t, a, b, 16)
	if got := MatMulParallel(a, b).TopKPerRow(16); got.RowNNZ(0) != 2 || got.RowNNZ(2) != 0 {
		t.Fatalf("cancelled cells kept: %v", got.ToDense())
	}

	// A block left operand, and a block on both sides: rows are decoded
	// from bytes and the product itself may be a block.
	for _, d := range []float64{0.2, 0.7} {
		ab := blockOf(countCSR(rng, 80, 25, d, blockVals))
		bc := randCSR(rng, 25, 60, d)
		bb := blockOf(countCSR(rng, 25, 60, d, blockVals))
		for _, k := range []int{1, 5, 16, 60} {
			checkTopKAgainstReference(t, ab, bc, k)
			checkTopKAgainstReference(t, ab, bb, k)
		}
	}
}

// valuedCSR is randCSR with values drawn from vals.
func valuedCSR(rng *rand.Rand, r, c int, density float64, vals func() float64) *CSR {
	b := NewBuilder(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				b.Add(i, j, vals())
			}
		}
	}
	return b.Build()
}

// scoredFixture scores a count by its cell and value: cells on every
// seventh anti-diagonal score zero and every eleventh NaN, so both are
// dropped, and the rest divide the count by a small cell-dependent
// integer.
func scoredFixture(i, j int, v float64) float64 {
	switch {
	case (i+j)%7 == 0:
		return 0 // dropped, as a zero-denominator proximity is
	case (i+j)%11 == 0:
		return math.NaN()
	}
	return v / float64(1+(i*j)%5)
}

// checkScoredAgainstReference requires Scored, on the count c and on its
// block twin, to equal scoring every stored entry of c into a matrix
// through a Builder.
func checkScoredAgainstReference(t *testing.T, c *CSR) {
	t.Helper()
	r, cols := c.Dims()
	scored := NewBuilder(r, cols)
	c.Iterate(func(i, j int, v float64) {
		if s := scoredFixture(i, j, v); s != 0 && s == s {
			scored.Add(i, j, s)
		}
	})
	want := scored.Build()
	for _, m := range []*CSR{c, blockOf(c)} {
		got := m.Scored(scoredFixture)
		checkWellFormed(t, got)
		if !got.Equal(want) {
			t.Fatalf("%v block=%v: Scored differs from the scored reference", c, m.Block())
		}
	}
}

// TestScoredMatchesScoredReference: Scored equals scoring every stored
// entry into a matrix through a Builder, for either layout, scores that
// vanish or are NaN dropped.
func TestScoredMatchesScoredReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, d := range []float64{0.05, 0.4, 0.9} {
		checkScoredAgainstReference(t, countCSR(rng, 50, 70, d, blockVals))
	}
}

// FuzzScored checks Scored on a count derived from the fuzzed shape,
// density and seed, in either layout, against the scored reference.
func FuzzScored(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(128))
	f.Add(int64(2), uint8(50), uint8(70), uint8(240))
	f.Add(int64(3), uint8(1), uint8(200), uint8(20))
	f.Add(int64(4), uint8(0), uint8(9), uint8(100))
	f.Add(int64(5), uint8(17), uint8(0), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkScoredAgainstReference(t, countCSR(rng, int(rows)%96, int(cols), float64(density)/255, blockVals))
	})
}

func TestTopKRowsRejectsOutOfRangeColumn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("column outside [0, cols) must panic")
		}
	}()
	TopKRows(1, 3, 2, func(int) ([]int, []float64) { return []int{3}, []float64{1} })
}

func TestTopKRowsRejectsUnorderedColumns(t *testing.T) {
	for _, cols := range [][]int{{2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("columns %v must panic", cols)
				}
			}()
			TopKRows(1, 3, 2, func(int) ([]int, []float64) { return cols, []float64{1, 2} })
		}()
	}
}

// TestTopKNeverSelectsNaN is the regression for the old comparator
// (v != v' then >), which is not a strict weak order once a row holds
// NaN: which entries survived was undefined, and with k ≥ nnz the NaNs
// themselves were kept. The typed selection never selects NaN and
// orders ±Inf like any other value.
func TestTopKNeverSelectsNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	m := FromDense(3, 6, []float64{
		nan, 3, nan, 1, 2, nan,
		inf, 5, -inf, nan, 0, 7,
		nan, nan, nan, 0, 0, 0,
	})
	cases := []struct {
		k    int
		want []float64
	}{
		{1, []float64{
			0, 3, 0, 0, 0, 0,
			inf, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0}},
		{2, []float64{
			0, 3, 0, 0, 2, 0,
			inf, 0, 0, 0, 0, 7,
			0, 0, 0, 0, 0, 0}},
		{6, []float64{
			0, 3, 0, 1, 2, 0,
			inf, 5, -inf, 0, 0, 7,
			0, 0, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		want := FromDense(3, 6, tc.want)
		if got := m.TopKPerRow(tc.k); !got.Equal(want) {
			t.Errorf("TopKPerRow(%d) = %v, want %v", tc.k, got.ToDense(), tc.want)
		}
	}
}
