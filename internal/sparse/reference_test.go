package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// The kernels below are the append-grown implementations MatMul,
// MatMulParallel and Hadamard had before they became write-once. They
// stay as the differential reference: the production kernels must equal
// them entry for entry (same columns, same floats, same order).

// referenceMulRows computes rows [lo, hi) of a·b by growing its output
// with append, one row at a time. It sums into its own dense array,
// collects the touched columns behind seen flags and orders them with
// slices.Sort, so it shares no accumulation or emission code with the
// kernel. Its cells add their terms as the kernel's do — a's
// row, then b's — onto +0.
func referenceMulRows(a, b *CSR, lo, hi int, rowLen []int) (colIdx []int, val []float64) {
	acc, seen := make([]float64, b.cols), make([]bool, b.cols)
	var touched []int
	for i := lo; i < hi; i++ {
		touched = touched[:0]
		ac, av := a.AppendRow(i, nil, nil)
		for p, k := range ac {
			bc, bv := b.AppendRow(k, nil, nil)
			for q, j := range bc {
				if !seen[j] {
					seen[j] = true
					touched = append(touched, j)
				}
				acc[j] += av[p] * bv[q]
			}
		}
		slices.Sort(touched)
		n := 0
		for _, j := range touched {
			if acc[j] != 0 {
				colIdx = append(colIdx, j)
				val = append(val, acc[j])
				n++
			}
			acc[j], seen[j] = 0, false
		}
		rowLen[i-lo] = n
	}
	return colIdx, val
}

func referenceMatMul(a, b *CSR) *CSR {
	out := &CSR{rows: a.rows, cols: b.cols, rowPtr: make([]int, a.rows+1)}
	rowLen := make([]int, a.rows)
	out.colIdx, out.val = referenceMulRows(a, b, 0, a.rows, rowLen)
	for i, n := range rowLen {
		out.rowPtr[i+1] = out.rowPtr[i] + n
	}
	return out
}

// referenceHadamard is the plain two-pointer merge with append-grown
// output.
func referenceHadamard(a, b *CSR) *CSR {
	out := &CSR{rows: a.rows, cols: a.cols, rowPtr: make([]int, a.rows+1)}
	for i := 0; i < a.rows; i++ {
		ka, kb := a.rowPtr[i], b.rowPtr[i]
		endA, endB := a.rowPtr[i+1], b.rowPtr[i+1]
		for ka < endA && kb < endB {
			ja, jb := a.colIdx[ka], b.colIdx[kb]
			switch {
			case ja == jb:
				if v := a.val[ka] * b.val[kb]; v != 0 {
					out.colIdx = append(out.colIdx, ja)
					out.val = append(out.val, v)
				}
				ka++
				kb++
			case ja < jb:
				ka++
			default:
				kb++
			}
		}
		out.rowPtr[i+1] = len(out.val)
	}
	return out
}

// referenceSkewHadamard is Hadamard as it was while a row pair at least
// referenceSkew× apart was galloped (referenceProbeRow) and every other
// pair merged, before the rank index took the probing regime over.
const referenceSkew = 8

func referenceSkewHadamard(a, b *CSR) *CSR {
	out := &CSR{rows: a.rows, cols: a.cols, rowPtr: make([]int, a.rows+1)}
	bound := 0
	for i := 0; i < a.rows; i++ {
		bound += min(a.rowPtr[i+1]-a.rowPtr[i], b.rowPtr[i+1]-b.rowPtr[i])
	}
	colIdx, val := make([]int, bound), make([]float64, bound)
	n := 0
	for i := 0; i < a.rows; i++ {
		ac, av := a.RowSlice(i)
		bc, bv := b.RowSlice(i)
		switch {
		case len(ac)*referenceSkew <= len(bc):
			n = referenceProbeRow(ac, av, bc, bv, colIdx, val, n)
		case len(bc)*referenceSkew <= len(ac):
			n = referenceProbeRow(bc, bv, ac, av, colIdx, val, n)
		default:
			for ka, kb := 0, 0; ka < len(ac) && kb < len(bc); {
				switch ja, jb := ac[ka], bc[kb]; {
				case ja == jb:
					if v := av[ka] * bv[kb]; v != 0 {
						colIdx[n], val[n] = ja, v
						n++
					}
					ka++
					kb++
				case ja < jb:
					ka++
				default:
					kb++
				}
			}
		}
		out.rowPtr[i+1] = n
	}
	out.colIdx, out.val = colIdx[:n], val[:n]
	return out
}

// referenceProbeRow intersects a short row with a much longer one by
// galloping each short column forward through what is left of the long
// row (doubling steps, then a binary search inside the last step).
func referenceProbeRow(sc []int, sv []float64, lc []int, lv []float64, colIdx []int, val []float64, n int) int {
	lo := 0 // the long row's columns before lo are below every short column left
	for ks, j := range sc {
		if lo == len(lc) {
			break
		}
		step := 1
		for lo+step < len(lc) && lc[lo+step] < j {
			lo += step
			step *= 2
		}
		hi := min(lo+step, len(lc)-1)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); lc[mid] < j {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lc[lo] < j {
			break // j and every later short column lie beyond the long row
		}
		if lc[lo] == j {
			if v := sv[ks] * lv[lo]; v != 0 {
				colIdx[n], val[n] = j, v
				n++
			}
			lo++
		}
	}
	return n
}

// abs returns m with every stored value replaced by its magnitude, so a
// product of abs matrices has the structure of the signed product
// before any cancellation.
func abs(m *CSR) *CSR {
	out := m.Clone()
	for k, v := range out.val {
		if v < 0 {
			out.val[k] = -v
		}
	}
	return out
}

// checkMatMulAgainstReference requires both production products to
// equal the reference and to own exactly the storage they use whenever
// no entry cancelled to zero.
func checkMatMulAgainstReference(t *testing.T, a, b *CSR) {
	t.Helper()
	want := referenceMatMul(a, b)
	cancelled := referenceMatMul(abs(a), abs(b)).NNZ() != want.NNZ()
	for name, got := range map[string]*CSR{"MatMul": MatMul(a, b), "MatMulParallel": MatMulParallel(a, b)} {
		checkWellFormed(t, got)
		if !got.Equal(want) {
			t.Fatalf("%s(%v, %v) differs from the append-grown reference", name, a, b)
		}
		if !cancelled && (cap(got.colIdx) != len(got.colIdx) || cap(got.val) != len(got.val)) {
			t.Fatalf("%s(%v, %v): nothing cancelled but cap(colIdx)=%d cap(val)=%d for %d entries",
				name, a, b, cap(got.colIdx), cap(got.val), got.NNZ())
		}
	}
}

// TestMatMulMatchesReference sweeps shapes × densities with values in
// ±{1..4} — ties, exact cancellation, empty rows and columns — at
// GOMAXPROCS 4 so products of 64 rows or more take the parallel path.
// Widths of 63 to 129 columns put rows' first and last columns on and
// around 64-column word boundaries, and a wide, ≤ 1 % dense sweep gives
// thin rows scattered over many words.
func TestMatMulMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(18))
	shapes := [][3]int{{0, 3, 4}, {4, 0, 3}, {4, 3, 0}, {1, 1, 1}, {3, 5, 4}, {17, 9, 23}, {63, 20, 40},
		{64, 64, 64}, {70, 1, 70}, {128, 40, 8}, {200, 30, 300}, {257, 90, 31},
		{40, 12, 63}, {40, 12, 64}, {40, 12, 65}, {70, 6, 127}, {70, 6, 128}, {70, 6, 129}}
	sawCancel := false
	check := func(a, b *CSR) {
		checkMatMulAgainstReference(t, a, b)
		checkMatMulAgainstReference(t, abs(a), abs(b))
		if referenceMatMul(abs(a), abs(b)).NNZ() != referenceMatMul(a, b).NNZ() {
			sawCancel = true
		}
	}
	for _, sh := range shapes {
		for _, d := range []float64{0, 0.01, 0.1, 0.5, 0.95} {
			check(randCSR(rng, sh[0], sh[1], d), randCSR(rng, sh[1], sh[2], d))
		}
	}
	for _, sh := range [][3]int{{90, 30, 4096}, {33, 200, 5000}} {
		for _, d := range []float64{0.001, 0.004, 0.01} {
			check(randCSR(rng, sh[0], sh[1], 0.1), randCSR(rng, sh[1], sh[2], d))
		}
	}
	// Rows made of the first column, the last, or both, at widths around
	// the word boundaries: the span's first and last words are the row's
	// ends.
	for _, cols := range []int{2, 63, 64, 65, 127, 128, 129, 192} {
		ab, bb := NewBuilder(3, 2), NewBuilder(2, cols)
		ab.Add(0, 0, 1)
		ab.Add(0, 1, 2)
		ab.Add(1, 0, 3)
		ab.Add(2, 1, -1)
		bb.Add(0, 0, 1)
		bb.Add(1, cols-1, 1)
		check(ab.Build(), bb.Build())
	}
	if !sawCancel {
		t.Fatal("fixture lost its cancelling products")
	}
}

// TestPooledWorkspacesAcrossWidths interleaves products of very
// different widths on concurrent goroutines at GOMAXPROCS 4, so pooled
// workspaces pass from wide products to narrow ones and back; a bit left
// set by one row would surface as a stray column in a later product.
func TestPooledWorkspacesAcrossWidths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(23))
	type pair struct{ a, b, want *CSR }
	var pairs []pair
	for _, sh := range [][4]float64{{130, 20, 3, 0.5}, {70, 40, 4100, 0.004}, {66, 8, 129, 0.3},
		{200, 50, 1000, 0.2}, {80, 10, 64, 0.9}, {90, 60, 6000, 0.002}} {
		a := randCSR(rng, int(sh[0]), int(sh[1]), 0.2)
		b := randCSR(rng, int(sh[1]), int(sh[2]), sh[3])
		pairs = append(pairs, pair{a, b, referenceMatMul(a, b)})
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				p := pairs[(g+round)%len(pairs)]
				mul := MatMul
				if round%2 == 1 {
					mul = MatMulParallel
				}
				if got := mul(p.a, p.b); !got.Equal(p.want) {
					errs <- fmt.Sprintf("goroutine %d round %d: %dx%d product differs from the reference", g, round, got.rows, got.cols)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestMatMulCancelledRowsCompact pins the shortfall path on a product
// whose every row loses entries: [1 -1]·[[1 1 0],[1 0 1]] = [0 1 -1].
func TestMatMulCancelledRowsCompact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const rows = 130
	ab, bb := NewBuilder(rows, 2), NewBuilder(2, 3)
	for i := 0; i < rows; i++ {
		ab.Add(i, 0, 1)
		ab.Add(i, 1, -1)
	}
	bb.Add(0, 0, 1)
	bb.Add(0, 1, 1)
	bb.Add(1, 0, 1)
	bb.Add(1, 2, 1)
	a, b := ab.Build(), bb.Build()
	checkMatMulAgainstReference(t, a, b)
	if got := MatMulParallel(a, b); got.NNZ() != 2*rows || got.At(rows-1, 0) != 0 || got.At(rows-1, 2) != -1 {
		t.Fatalf("cancelled product: nnz %d, last row %v", got.NNZ(), got.ToDense()[3*(rows-1):])
	}
}

// TestMatMulAllocatesOnlyItsOutput bounds a product's allocations by
// its output — the matrix header, rowPtr, colIdx and val — plus the two
// pass closures and the numeric pass's zero flag, plus a workspace when
// the pool had none to lend (its header, accumulator and column bitset).
// The append-grown kernel made 55 on this pair. Its product of counts
// is built as a block; halving a keeps the product compressed, so both
// numeric passes are bounded.
func TestMatMulAllocatesOnlyItsOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := abs(randCSR(rng, 300, 200, 0.05))
	b := abs(randCSR(rng, 200, 400, 0.05))
	const output, passes, workspace = 4, 3, 3
	for _, left := range []*CSR{a, a.Scale(0.5)} {
		for name, mul := range map[string]func(a, b *CSR) *CSR{"MatMul": MatMul, "MatMulParallel": MatMulParallel} {
			if n := testing.AllocsPerRun(20, func() { mul(left, b) }); n > output+passes+workspace {
				t.Errorf("%s (block %v) allocates %.1f objects per product, want at most %d", name, mul(left, b).block != nil, n, output+passes+workspace)
			}
		}
	}
}

// skewedPair returns two same-shape matrices whose rows mix similar
// lengths, one side many times the other (either way round), and empty
// rows, so the Σ min(|aᵢ|, |bᵢ|) bound is tight on some rows and loose
// on others.
func skewedPair(rng *rand.Rand, rows, cols int) (a, b *CSR) {
	ab, bb := NewBuilder(rows, cols), NewBuilder(rows, cols)
	fill := func(bd *Builder, i int, density float64) {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				v := float64(rng.Intn(4) + 1)
				if rng.Intn(2) == 0 {
					v = -v
				}
				bd.Add(i, j, v)
			}
		}
	}
	dens := [][2]float64{{0.3, 0.3}, {0.9, 0.02}, {0.02, 0.9}, {0, 0.5}, {0.5, 0}, {1, 0.1}, {0.005, 1}}
	for i := 0; i < rows; i++ {
		d := dens[rng.Intn(len(dens))]
		fill(ab, i, d[0])
		fill(bb, i, d[1])
	}
	return ab.Build(), bb.Build()
}

// checkHadamardAgainstReference requires Hadamard to equal the plain
// merge — and the galloping kernel it replaced — in both operand orders.
func checkHadamardAgainstReference(t *testing.T, a, b *CSR) {
	t.Helper()
	want := referenceHadamard(a, b)
	if skew := referenceSkewHadamard(a, b); !skew.Equal(want) {
		t.Fatalf("the two references disagree on (%v, %v)", a, b)
	}
	got := Hadamard(a, b)
	checkWellFormed(t, got)
	if !got.Equal(want) {
		t.Fatalf("Hadamard(%v, %v) differs from the two-pointer reference", a, b)
	}
	if rev := Hadamard(b, a); !rev.Equal(want) {
		t.Fatalf("Hadamard(%v, %v) differs from the product taken the other way round", b, a)
	}
}

// TestHadamardMatchesReference checks the presized, skew-aware Hadamard
// against the append-grown merge, both operand orders.
func TestHadamardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, sh := range [][2]int{{0, 5}, {5, 0}, {1, 1}, {7, 40}, {30, 300}, {12, 1000}} {
		for trial := 0; trial < 8; trial++ {
			a, b := skewedPair(rng, sh[0], sh[1])
			checkHadamardAgainstReference(t, a, b)
		}
	}
}

// ratioPair returns two rows×cols matrices whose row i pairs short[i]
// entries on one side with short[i]·ratio on the other (sides swapping
// from row to row), at random columns. Values come from vals, so a
// caller can plant products that vanish.
func ratioPair(rng *rand.Rand, cols, ratio int, short []int, vals []float64) (a, b *CSR) {
	row := func(n int) ([]int, []float64) {
		js := rng.Perm(cols)[:min(n, cols)]
		slices.Sort(js)
		vs := make([]float64, len(js))
		for k := range vs {
			vs[k] = vals[rng.Intn(len(vals))]
		}
		return js, vs
	}
	build := func(lens []int) *CSR {
		m := &CSR{rows: len(lens), cols: cols, rowPtr: make([]int, len(lens)+1)}
		for i, n := range lens {
			js, vs := row(n)
			m.colIdx, m.val = append(m.colIdx, js...), append(m.val, vs...)
			m.rowPtr[i+1] = len(m.val)
		}
		return m
	}
	la, lb := make([]int, len(short)), make([]int, len(short))
	for i, n := range short {
		la[i], lb[i] = n, n*ratio
		if i%2 == 1 {
			la[i], lb[i] = lb[i], la[i]
		}
	}
	return build(la), build(lb)
}

// TestHadamardAcrossTheSkewThreshold walks row-length ratios from equal
// rows to 64× apart — on both sides of the ratio at which the replaced
// kernel started galloping — over widths that put the longer matrix on
// either side of the rank-index rule, with empty rows on either side,
// rows that run to the last column, and values whose products underflow
// to exactly zero and must not be stored.
func TestHadamardAcrossTheSkewThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	short := []int{0, 0, 1, 1, 2, 3, 5, 8, 13, 15}
	vals := []float64{1, -2, 3, 0.5, 1e-200, -1e-200, 1e200}
	for _, ratio := range []int{1, referenceSkew - 1, referenceSkew, referenceSkew + 1, 64} {
		for _, cols := range []int{15 * ratio, 20 * ratio, 1000 + 15*ratio} {
			for trial := 0; trial < 4; trial++ {
				a, b := ratioPair(rng, cols, ratio, short, vals)
				checkHadamardAgainstReference(t, a, b)
			}
		}
	}
	// Empty against full, either way round, and a matrix against itself.
	full := randCSR(rng, 9, 70, 1)
	checkHadamardAgainstReference(t, Zero(9, 70), full)
	checkHadamardAgainstReference(t, full, full)
	// An underflowing product is dropped in both regimes: 40 of 4000
	// columns a row keeps the index away, 400 of 400 brings it.
	a, b := ratioPair(rng, 4000, 1, []int{40, 40}, []float64{1e-200})
	if a.rank() != nil || b.rank() != nil {
		t.Fatal("a 1 % dense pair was indexed")
	}
	if got := Hadamard(a, b); got.NNZ() != 0 {
		t.Errorf("merge kept %d products that underflowed to zero", got.NNZ())
	}
	a, b = ratioPair(rng, 400, 40, []int{10, 10}, []float64{1e-200})
	if a.rank() == nil || b.rank() == nil {
		t.Fatal("a half-full pair was not indexed")
	}
	if got := Hadamard(a, b); got.NNZ() != 0 {
		t.Errorf("probe kept %d products that underflowed to zero", got.NNZ())
	}
}

// hadamardFuzzSeeds is FuzzHadamard's seed corpus: (seed, ratio, width,
// longest). Width 0 is the empty shape; the last four sit the longer
// matrix on, just under and far over the rank-index rule.
var hadamardFuzzSeeds = [][4]int{
	{1, 1, 40, 3}, {2, 7, 200, 5}, {3, 8, 200, 9}, {4, 9, 255, 1}, {5, 64, 255, 0}, {6, 0, 0, 7},
	{7, 1, 255, 16}, {8, 1, 255, 12}, {9, 2, 16, 32}, {10, 40, 5, 20},
}

// hadamardFuzzCase derives the operand pair of one fuzz input.
func hadamardFuzzCase(seed int64, ratio, width, longest uint8) (a, b *CSR) {
	rng := rand.New(rand.NewSource(seed))
	short := make([]int, 1+rng.Intn(12))
	for i := range short {
		short[i] = rng.Intn(int(longest) + 1)
	}
	vals := []float64{1, -1, 2, 0.25, 1e-200, 1e200}
	return ratioPair(rng, 4*int(width), int(ratio), short, vals)
}

// FuzzHadamard derives a row-length ratio, a width and a seed from the
// fuzzed bytes and checks both regimes against the plain merge.
func FuzzHadamard(f *testing.F) {
	for _, s := range hadamardFuzzSeeds {
		f.Add(int64(s[0]), uint8(s[1]), uint8(s[2]), uint8(s[3]))
	}
	f.Fuzz(func(t *testing.T, seed int64, ratio, width, longest uint8) {
		a, b := hadamardFuzzCase(seed, ratio, width, longest)
		checkHadamardAgainstReference(t, a, b)
	})
}

// TestFuzzHadamardCorpusReachesBothRegimes keeps the seed corpus honest:
// it must put rows through the rank probe and through the merge.
func TestFuzzHadamardCorpusReachesBothRegimes(t *testing.T) {
	merge0, rank0 := mHadamardMerge.Value(), mHadamardRank.Value()
	for _, s := range hadamardFuzzSeeds {
		a, b := hadamardFuzzCase(int64(s[0]), uint8(s[1]), uint8(s[2]), uint8(s[3]))
		Hadamard(a, b)
	}
	if merged, ranked := mHadamardMerge.Value()-merge0, mHadamardRank.Value()-rank0; merged == 0 || ranked == 0 {
		t.Errorf("seed corpus ran %d merged and %d ranked rows; it must reach both", merged, ranked)
	}
}

// referenceAdd is the append-grown union merge Add was before it sized
// its output in a counting pass.
func referenceAdd(a, b *CSR) *CSR {
	out := &CSR{rows: a.rows, cols: a.cols, rowPtr: make([]int, a.rows+1)}
	push := func(j int, v float64) {
		if v != 0 {
			out.colIdx = append(out.colIdx, j)
			out.val = append(out.val, v)
		}
	}
	for i := 0; i < a.rows; i++ {
		ka, kb := a.rowPtr[i], b.rowPtr[i]
		endA, endB := a.rowPtr[i+1], b.rowPtr[i+1]
		for ka < endA || kb < endB {
			switch {
			case kb >= endB || (ka < endA && a.colIdx[ka] < b.colIdx[kb]):
				push(a.colIdx[ka], a.val[ka])
				ka++
			case ka >= endA || b.colIdx[kb] < a.colIdx[ka]:
				push(b.colIdx[kb], b.val[kb])
				kb++
			default:
				push(a.colIdx[ka], a.val[ka]+b.val[kb])
				ka++
				kb++
			}
		}
		out.rowPtr[i+1] = len(out.val)
	}
	return out
}

// TestAddMatchesReference: the two-pass Add equals the append-grown
// merge on pairs that overlap, cancel (values in ±{1..4}) and leave rows
// empty, and owns exactly the storage it uses when nothing cancelled.
func TestAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sawCancel := false
	for _, sh := range [][2]int{{0, 4}, {4, 0}, {1, 1}, {9, 30}, {40, 200}} {
		for _, d := range []float64{0, 0.05, 0.4, 1} {
			a, b := randCSR(rng, sh[0], sh[1], d), randCSR(rng, sh[0], sh[1], d)
			for _, pair := range [][2]*CSR{{a, b}, {abs(a), abs(b)}, {a, a.Scale(-1)}} {
				want, got := referenceAdd(pair[0], pair[1]), Add(pair[0], pair[1])
				checkWellFormed(t, got)
				if !got.Equal(want) {
					t.Fatalf("Add(%v, %v) differs from the append-grown reference", pair[0], pair[1])
				}
				cancelled := referenceAdd(abs(pair[0]), abs(pair[1])).NNZ() != want.NNZ()
				sawCancel = sawCancel || cancelled
				if !cancelled && (cap(got.colIdx) != len(got.colIdx) || cap(got.val) != len(got.val)) {
					t.Fatalf("Add(%v, %v): nothing cancelled but cap %d/%d for %d entries", pair[0], pair[1], cap(got.colIdx), cap(got.val), got.NNZ())
				}
			}
		}
	}
	if !sawCancel {
		t.Fatal("fixture lost its cancelling sums")
	}
}

// matMulFuzzSeeds is FuzzMatMul's seed corpus: (seed, rows, inner,
// cols, density, wide). A wide case spreads 64× the columns at 1/64 of
// the density: thin rows scattered over many words, which a uint8 width
// cannot reach otherwise.
var matMulFuzzSeeds = []struct {
	seed                       int64
	rows, inner, cols, density uint8
	wide                       bool
}{
	{1, 3, 4, 5, 128, false}, {2, 70, 9, 30, 40, false}, {3, 200, 1, 200, 250, false},
	{4, 64, 64, 64, 5, false}, {5, 0, 7, 0, 255, false}, {6, 80, 4, 100, 80, true},
	{7, 66, 30, 2, 200, true},
}

// matMulFuzzCase derives the operand pair of one fuzz input.
func matMulFuzzCase(seed int64, rows, inner, cols, density uint8, wide bool) (a, b *CSR) {
	rng := rand.New(rand.NewSource(seed))
	d, width, bd := float64(density)/255, int(cols), float64(density)/255
	if wide {
		width, bd = 64*width, bd/64
	}
	return randCSR(rng, int(rows), int(inner), d), randCSR(rng, int(inner), width, bd)
}

// FuzzMatMul derives two operands from the fuzzed shape, density and
// seed and checks the two-pass products against referenceMulRows.
func FuzzMatMul(f *testing.F) {
	for _, s := range matMulFuzzSeeds {
		f.Add(s.seed, s.rows, s.inner, s.cols, s.density, s.wide)
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, inner, cols, density uint8, wide bool) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		a, b := matMulFuzzCase(seed, rows, inner, cols, density, wide)
		checkMatMulAgainstReference(t, a, b)
	})
}
