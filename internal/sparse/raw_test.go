package sparse

import (
	"math/rand"
	"strings"
	"testing"
)

func TestRawRoundTrip(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Add(0, 1, 2)
	b.Add(0, 3, 1)
	b.Add(2, 0, 5)
	m := b.Build()
	rows, cols, rowPtr, colIdx, val := m.Raw()
	got, err := FromRaw(rows, cols, rowPtr, colIdx, val)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Errorf("round trip mismatch: %v vs %v", got, m)
	}
	// Empty matrix round trip.
	z := Zero(0, 7)
	r2, c2, rp2, ci2, v2 := z.Raw()
	got2, err := FromRaw(r2, c2, rp2, ci2, v2)
	if err != nil || !got2.Equal(z) {
		t.Errorf("empty round trip: %v, %v", got2, err)
	}
}

func TestFromRawRejectsHostileInput(t *testing.T) {
	cases := []struct {
		name           string
		rows, cols     int
		rowPtr, colIdx []int
		val            []float64
		want           string
	}{
		{"negative shape", -1, 2, []int{0}, nil, nil, "negative shape"},
		{"rowPtr len", 2, 2, []int{0, 0}, nil, nil, "rowPtr len"},
		{"colIdx vs val", 1, 2, []int{0, 1}, []int{0}, nil, "vs val len"},
		{"rowPtr span", 1, 2, []int{0, 2}, []int{0}, []float64{1}, "spans"},
		{"rowPtr nonzero start", 1, 2, []int{1, 1}, []int{0}, []float64{1}, "spans"},
		{"rowPtr decreases", 2, 2, []int{0, 2, 1}, nil, nil, "spans"},
		{"column out of range", 1, 2, []int{0, 1}, []int{2}, []float64{1}, "out of order or range"},
		{"negative column", 1, 2, []int{0, 1}, []int{-1}, []float64{1}, "out of order or range"},
		{"unsorted columns", 1, 3, []int{0, 2}, []int{2, 1}, []float64{1, 1}, "out of order or range"},
		{"duplicate columns", 1, 3, []int{0, 2}, []int{1, 1}, []float64{1, 1}, "out of order or range"},
	}
	for _, tc := range cases {
		_, err := FromRaw(tc.rows, tc.cols, tc.rowPtr, tc.colIdx, tc.val)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want %q", tc.name, err, tc.want)
		}
	}
	// A decreasing interior rowPtr with consistent endpoints.
	_, err := FromRaw(3, 2, []int{0, 2, 1, 2}, []int{0, 1}, []float64{1, 1})
	if err == nil || !strings.Contains(err.Error(), "decreases") {
		t.Errorf("decreasing rowPtr: %v", err)
	}
	// An interior rowPtr past the entries, consistent endpoints again: the
	// row must be refused before its columns are read.
	_, err = FromRaw(2, 2, []int{0, 9, 2}, []int{0, 1}, []float64{1, 1})
	if err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Errorf("overrunning rowPtr: %v", err)
	}
}

// TestFromBlock: FromBlock wraps its cells as they are and counts each
// row's non-zero cells — whole words, a row's tail and cells with their
// high bit set — so the block answers as its compressed twin does; a
// cell count that does not match the shape, a negative shape and a
// rows·cols that overflows to the cell count are refused without a
// panic. BlockShape, the rule's shape half, refuses that overflow too.
func TestFromBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, sh := range [][2]int{{0, 0}, {3, 0}, {1, 1}, {2, 7}, {3, 8}, {4, 9}, {5, 17}, {6, 64}} {
		for _, density := range []float64{0, 0.3, 1} {
			c := countCSR(rng, sh[0], sh[1], density, []float64{1, 128, 255})
			cells := make([]uint8, sh[0]*sh[1])
			c.Iterate(func(i, j int, v float64) { cells[i*sh[1]+j] = uint8(v) })
			b, err := FromBlock(sh[0], sh[1], cells)
			if err != nil {
				t.Fatal(err)
			}
			if !b.Block() || !b.Equal(c) || b.NNZ() != c.NNZ() {
				t.Fatalf("%v at density %v: block %v, equal to its twin %v", c, density, b.Block(), b.Equal(c))
			}
			for i := 0; i < sh[0]; i++ {
				if b.RowNNZ(i) != c.RowNNZ(i) {
					t.Fatalf("%v row %d: %d non-zero cells counted, %d stored", c, i, b.RowNNZ(i), c.RowNNZ(i))
				}
			}
		}
	}
	if b, err := FromBlock(3, 0, nil); err != nil || !b.Block() {
		t.Fatalf("3×0 block from nil cells: block %v, %v", b != nil && b.Block(), err)
	}
	for _, tc := range []struct {
		name          string
		rows, cols, n int
	}{
		{"negative shape", -1, 2, 0},
		{"too few cells", 2, 3, 5},
		{"too many cells", 2, 3, 7},
		{"rows·cols overflows", 1 << 33, 1 << 31, 0},
	} {
		if _, err := FromBlock(tc.rows, tc.cols, make([]uint8, tc.n)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	for _, tc := range []struct {
		rows, cols, nnz int
		want            bool
	}{
		{8, 8, 8, true}, {8, 8, 7, false}, {2, 2, 0, false}, {-1, 2, 5, false}, {4, 1<<62 + 1, 4, false}, {1 << 33, 1 << 31, 1, false},
	} {
		if got := BlockShape(tc.rows, tc.cols, tc.nnz); got != tc.want {
			t.Errorf("BlockShape(%d, %d, %d) = %v, want %v", tc.rows, tc.cols, tc.nnz, got, tc.want)
		}
	}
}
