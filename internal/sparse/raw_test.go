package sparse

import (
	"math/rand"
	"slices"
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

// TestNonZeroBytes counts rows of every length up to 100 — four-word
// turns, whole words after them and a tail in each combination — with
// zero, low, high-bit and full bytes, against a count of the cells one
// by one.
func TestNonZeroBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 100; n++ {
		b := make([]uint8, n)
		want := 0
		for i := range b {
			b[i] = []uint8{0, 0, 1, 0x7f, 0x80, 0xff}[rng.Intn(6)]
			if b[i] != 0 {
				want++
			}
		}
		if got := nonZeroBytes(b); got != want {
			t.Fatalf("%d bytes %v: %d non-zero counted, want %d", n, b, got, want)
		}
	}
}

// TestFromRemapRefuses: a negative width, a stored column the remap
// does not cover, one it renames out of range and two columns of a row
// renamed to one are each refused, naming what is wrong; columns no row
// stores may rename anywhere, or share a target.
func TestFromRemapRefuses(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(0, 0, 1)
	b.Add(0, 2, 1)
	b.Add(1, 1, 1)
	m := b.Build()
	for _, tc := range []struct {
		name  string
		width int
		remap []int
		want  string
	}{
		{"negative width", -1, []int{0, 1, 2}, "negative width"},
		{"short remap", 3, []int{0, 1}, "past the remap"},
		{"past the width", 3, []int{0, 3, 2}, "out of range"},
		{"negative target", 3, []int{0, -1, 2}, "out of range"},
		{"collision", 3, []int{1, 0, 1}, "two columns renamed to 1"},
	} {
		if _, err := FromRemap(m, tc.width, tc.remap); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want %q", tc.name, err, tc.want)
		}
	}
	// Row 0 stores columns 0 and 2, row 1 column 1: 0 and 1 may share.
	got, err := FromRemap(m, 2, []int{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := FromDense(2, 2, []float64{1, 1, 0, 1}); !got.Equal(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// FuzzFromRemap renames the columns of a matrix derived from the fuzzed
// bytes — and of its block twin — through a remap that the fuzzed mode
// makes injective, colliding, short or out of range, and checks the
// result against a Builder fed the renamed entries: the same arrays
// when every stored column of a row renames to a column of its own in
// range, a refusal otherwise. The input is left as it was.
func FuzzFromRemap(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(6), uint8(120), uint8(9), uint8(0))
	f.Add(int64(2), uint8(12), uint8(20), uint8(200), uint8(30), uint8(0))
	f.Add(int64(3), uint8(8), uint8(9), uint8(90), uint8(12), uint8(1))
	f.Add(int64(4), uint8(7), uint8(10), uint8(60), uint8(14), uint8(2))
	f.Add(int64(5), uint8(9), uint8(4), uint8(150), uint8(6), uint8(3))
	f.Add(int64(6), uint8(0), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, density, width, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		m := countCSR(rng, int(rows)%40, int(cols)%40, float64(density)/255, blockVals)
		orig := m.Clone()
		w := int(width) % 64
		remap := make([]int, m.cols)
		copy(remap, rng.Perm(max(w, m.cols)))
		switch mode % 4 {
		case 1: // colliding: targets drawn from a quarter of the width
			for j := range remap {
				remap[j] = rng.Intn(max(w/4, 1))
			}
		case 2: // short
			remap = remap[:rng.Intn(len(remap)+1)]
		case 3: // one target out of range
			if len(remap) > 0 {
				remap[rng.Intn(len(remap))] = []int{-1, w}[rng.Intn(2)]
			}
		}
		b := NewBuilder(m.rows, w)
		valid := true
		seen := make(map[[2]int]bool)
		m.Iterate(func(i, j int, v float64) {
			if j >= len(remap) || remap[j] < 0 || remap[j] >= w || seen[[2]int{i, remap[j]}] {
				valid = false
				return
			}
			seen[[2]int{i, remap[j]}] = true
			b.Add(i, remap[j], v)
		})
		want := b.Build()
		inputs := []*CSR{m}
		if blk := blockOf(m); blk != nil {
			inputs = append(inputs, blk)
		}
		for _, in := range inputs {
			got, err := FromRemap(in, w, remap)
			if !valid {
				if err == nil {
					t.Fatalf("remap %v of %v accepted, some stored column has no column of its own", remap, m)
				}
				continue
			}
			if err != nil {
				t.Fatalf("remap %v of %v: %v", remap, m, err)
			}
			checkWellFormed(t, got)
			gr, gc, gp, gi, gv := got.Raw()
			wr, wc, wp, wi, wv := want.Raw()
			if gr != wr || gc != wc || !slices.Equal(gp, wp) || !slices.Equal(gi, wi) || !sameBits(gv, wv) {
				t.Fatalf("remap %v of %v: got %v, want %v", remap, in, got, want)
			}
		}
		if !m.Equal(orig) {
			t.Fatalf("FromRemap changed its input: %v, was %v", m, orig)
		}
	})
}
