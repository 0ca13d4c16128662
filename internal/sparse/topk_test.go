package sparse

import (
	"math"
	"math/rand"
	"runtime"
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
// checked against; defined only for rows without NaN.
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
	for i := 0; i < m.rows; i++ {
		buf = buf[:0]
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			buf = append(buf, entry{j: m.colIdx[p], v: m.val[p]})
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
// that the typed TopKPerRow equals the reference on a, b and a·b, and
// that the fused kernel equals the unfused product followed by the
// reference truncation.
func checkTopKAgainstReference(t *testing.T, a, b *CSR, k int) {
	t.Helper()
	for _, m := range []*CSR{a, b} {
		if got, want := m.TopKPerRow(k), referenceTopKPerRow(m, k); !got.Equal(want) {
			t.Fatalf("%v k=%d: TopKPerRow differs from reference\n got %v\nwant %v", m, k, got.ToDense(), want.ToDense())
		}
	}
	prod := MatMulParallel(a, b)
	want := referenceTopKPerRow(prod, k)
	if got := prod.TopKPerRow(k); !got.Equal(want) {
		t.Fatalf("%v·%v k=%d: TopKPerRow of the product differs from reference", a, b, k)
	}
	got := MatMulTopK(a, b, k)
	checkWellFormed(t, got)
	if !got.Equal(want) {
		t.Fatalf("%v·%v k=%d: MatMulTopK differs from MatMulParallel(...).TopKPerRow(k)", a, b, k)
	}
}

// TestMatMulTopKProperty sweeps shapes either side of the 64-row
// serial/parallel switch, densities from mostly-empty rows to near
// dense, and every k regime. randCSR draws values from ±{1..4}, so
// products tie and cancel to exactly zero constantly.
func TestMatMulTopKProperty(t *testing.T) {
	// The row-parallel path needs more than one P; force it so the
	// sweep (and -race) covers it on a one-core box too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
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
}

func TestMatMulTopKDegenerate(t *testing.T) {
	// Zero-width and zero-height operands, and an all-empty product.
	for _, dims := range [][3]int{{0, 0, 0}, {0, 3, 4}, {4, 0, 3}, {4, 3, 0}, {80, 5, 6}} {
		a, b := Zero(dims[0], dims[1]), Zero(dims[1], dims[2])
		got := MatMulTopK(a, b, 3)
		if r, c := got.Dims(); r != dims[0] || c != dims[2] || got.NNZ() != 0 {
			t.Errorf("dims %v: got %v, want empty %dx%d", dims, got, dims[0], dims[2])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inner-dimension mismatch must panic")
		}
	}()
	MatMulTopK(Zero(2, 3), Zero(2, 3), 1)
}

func TestTopKRowsRejectsOutOfRangeColumn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("column outside [0, cols) must panic")
		}
	}()
	TopKRows(1, 3, 2, func(int) ([]int, []float64) { return []int{3}, []float64{1} })
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
	one := FromDense(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
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
		// one·m accumulates every entry of m unchanged, NaN included.
		if got := MatMulTopK(one, m, tc.k); !got.Equal(want) {
			t.Errorf("MatMulTopK(I, m, %d) = %v, want %v", tc.k, got.ToDense(), tc.want)
		}
	}
}

// FuzzMatMulTopK derives two random operands from the fuzzed shape,
// density and seed and checks the fused kernel and the typed
// TopKPerRow against the reference.
func FuzzMatMulTopK(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(5), uint8(128), int16(2))
	f.Add(int64(2), uint8(70), uint8(9), uint8(30), uint8(40), int16(16))
	f.Add(int64(3), uint8(200), uint8(1), uint8(200), uint8(250), int16(1))
	f.Add(int64(4), uint8(64), uint8(64), uint8(64), uint8(5), int16(-1))
	f.Add(int64(5), uint8(0), uint8(7), uint8(0), uint8(255), int16(300))
	f.Fuzz(func(t *testing.T, seed int64, rows, inner, cols, density uint8, k int16) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		rng := rand.New(rand.NewSource(seed))
		d := float64(density) / 255
		a := randCSR(rng, int(rows), int(inner), d)
		b := randCSR(rng, int(inner), int(cols), d)
		checkTopKAgainstReference(t, a, b, int(k))
	})
}
