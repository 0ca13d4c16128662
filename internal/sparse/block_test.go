package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// blockOf returns m's twin in the block layout, or nil when some stored
// value is not an integer in 0…255.
func blockOf(m *CSR) *CSR {
	out := &CSR{rows: m.rows, cols: m.cols, block: make([]uint8, m.rows*m.cols), rowNNZ: make([]int, m.rows)}
	ok := true
	m.Iterate(func(i, j int, v float64) {
		if !(v >= 0 && v <= 255) || v != math.Trunc(v) {
			ok = false
			return
		}
		out.block[i*m.cols+j] = uint8(v)
		out.rowNNZ[i]++
		out.nnz++
	})
	if !ok {
		return nil
	}
	return out
}

// countCSR builds an r×c matrix at the given density whose values are
// drawn from vals, so a fixture decides whether a block can hold it.
func countCSR(rng *rand.Rand, r, c int, density float64, vals []float64) *CSR {
	b := NewBuilder(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				b.Add(i, j, vals[rng.Intn(len(vals))])
			}
		}
	}
	return b.Build()
}

// sameBits reports whether two vectors hold the same float64 bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// blockVals are the values a block can hold: 1 and 255 at the ends of
// the byte, small counts between.
var blockVals = []float64{1, 1, 2, 3, 255}

// partnerVals are the values of the other operands: counts, a 256 no
// block holds, and a fraction, so a sum whose order changed would show.
var partnerVals = []float64{1, 2, 3, 256, 0.1}

// checkBlockTwin requires the block b and its compressed twin c to
// answer every exported method alike, and every kernel alike with b in
// each operand slot it can take, next to partners drawn from rng. Only
// the paths that need compressed arrays may count a materialisation.
func checkBlockTwin(t *testing.T, c, b *CSR, rng *rand.Rand) {
	t.Helper()
	fail := func(what string) { t.Helper(); t.Fatalf("%v as a block: %s differs from the compressed twin", c, what) }
	mat0 := mBlockMaterializations.Value()
	r, k := c.rows, c.cols
	if !b.Block() || c.Block() || !b.Equal(c) || !c.Equal(b) || b.NNZ() != c.NNZ() || b.String() != c.String() || b.Density() != c.Density() {
		fail("Equal, NNZ, String or Density")
	}
	if br, bc := b.Dims(); br != r || bc != k || b.Rows() != r || b.Cols() != k {
		fail("Dims")
	}
	type entry struct {
		i, j int
		v    float64
	}
	var ce, be []entry
	c.Iterate(func(i, j int, v float64) { ce = append(ce, entry{i, j, v}) })
	b.Iterate(func(i, j int, v float64) { be = append(be, entry{i, j, v}) })
	if !slices.Equal(ce, be) {
		fail("Iterate")
	}
	for i := 0; i < r; i++ {
		var cr, br []entry
		c.Row(i, func(j int, v float64) { cr = append(cr, entry{i, j, v}) })
		b.Row(i, func(j int, v float64) { br = append(br, entry{i, j, v}) })
		// Appended after a stale prefix, as a reused scratch row is.
		cc, cv := c.AppendRow(i, []int{-1}, []float64{-1})
		bc, bv := b.AppendRow(i, []int{-1}, []float64{-1})
		if !slices.Equal(cr, br) || b.RowNNZ(i) != c.RowNNZ(i) || !slices.Equal(cc, bc) || !sameBits(cv, bv) {
			fail(fmt.Sprintf("row %d", i))
		}
		for j := 0; j < k; j++ {
			if b.At(i, j) != c.At(i, j) {
				fail(fmt.Sprintf("At(%d, %d)", i, j))
			}
		}
	}
	if !sameBits(b.RowSums(), c.RowSums()) || !sameBits(b.ColSums(), c.ColSums()) || b.Sum() != c.Sum() || !sameBits(b.ToDense(), c.ToDense()) {
		fail("sums or ToDense")
	}
	if !b.Clone().Equal(c) || !b.Clone().Block() || !b.T().Equal(c.T()) || !b.T().T().Equal(c) || !b.Binarize().Equal(c.Binarize()) {
		fail("Clone, T or Binarize")
	}
	for _, derived := range []*CSR{b.Clone(), b.T(), b.Binarize()} {
		checkWellFormed(t, derived)
	}
	if !b.TopKPerRow(3).Equal(c.TopKPerRow(3)) {
		fail("TopKPerRow")
	}
	xr, xc := make([]float64, k), make([]float64, r)
	for j := range xr {
		xr[j] = rng.NormFloat64()
	}
	for i := range xc {
		xc[i] = rng.NormFloat64()
	}
	if !sameBits(b.MulVec(xr), c.MulVec(xr)) || !sameBits(b.TMulVec(xc), c.TMulVec(xc)) {
		fail("MulVec or TMulVec")
	}

	// Kernels, with b on either side of partners that hold counts,
	// fractions and values no block holds.
	n := 1 + rng.Intn(9)
	left, right := countCSR(rng, n, r, 0.4, partnerVals), countCSR(rng, k, n, 0.4, partnerVals)
	same := countCSR(rng, r, k, 0.3, partnerVals)
	for _, tc := range []struct {
		name string
		f    func(m *CSR) *CSR
	}{
		{"MatMul(m, right)", func(m *CSR) *CSR { return MatMul(m, right) }},
		{"MatMul(left, m)", func(m *CSR) *CSR { return MatMul(left, m) }},
		{"MatMulParallel(m, mᵀ)", func(m *CSR) *CSR { return MatMulParallel(m, m.T()) }},
		{"Chain(left, m, right)", func(m *CSR) *CSR { return Chain(left, m, right) }},
		{"Chain(mᵀ, m, mᵀ)", func(m *CSR) *CSR { return Chain(m.T(), m, m.T()) }},
		{"Hadamard(m, same)", func(m *CSR) *CSR { return Hadamard(m, same) }},
		{"Hadamard(same, m)", func(m *CSR) *CSR { return Hadamard(same, m) }},
		{"Hadamard(m, m)", func(m *CSR) *CSR { return Hadamard(m, m) }},
		{"Add(m, same)", func(m *CSR) *CSR { return Add(m, same) }},
		{"Add(same, m)", func(m *CSR) *CSR { return Add(same, m) }},
		{"Add(m, m)", func(m *CSR) *CSR { return Add(m, m) }},
	} {
		if got, want := tc.f(b), tc.f(c); !got.Equal(want) || !sameBits(got.RowSums(), want.RowSums()) {
			fail(tc.name)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			if MatMulAt(left, b, i, j) != MatMulAt(left, c, i, j) {
				fail(fmt.Sprintf("MatMulAt(left, m, %d, %d)", i, j))
			}
		}
	}
	for i := 0; i < r; i++ {
		for j := 0; j < n; j++ {
			if MatMulAt(b, right, i, j) != MatMulAt(c, right, i, j) {
				fail(fmt.Sprintf("MatMulAt(m, right, %d, %d)", i, j))
			}
		}
	}
	// As a stacked count over x·y, and as either factor of a walked
	// product, under a count stacked on it.
	x, y := countCSR(rng, r, n, 0.5, partnerVals), countCSR(rng, n, k, 0.5, partnerVals)
	marginals := func(x, y *CSR, ds ...*CSR) [][]float64 {
		rs, cs := MatMulMarginals(x, y, ds)
		return append(rs, cs...)
	}
	dr, dl := countCSR(rng, r, n, 0.5, blockVals), countCSR(rng, n, k, 0.6, blockVals)
	for name, pair := range map[string][2][][]float64{
		"MatMulMarginals(x, y, {m, same})": {marginals(x, y, b, same), marginals(x, y, c, same)},
		"MatMulMarginals(m, right, d)":     {marginals(b, right, dr), marginals(c, right, dr)},
		"MatMulMarginals(left, m, d)":      {marginals(left, b, dl), marginals(left, c, dl)},
	} {
		if !slices.EqualFunc(pair[0], pair[1], sameBits) {
			fail(name)
		}
	}
	// As a stacked count, and as preᵀ or post.
	terms := func(preT, post *CSR, ds []*CSR, a1, a2 int) []float64 {
		out := make([]float64, len(ds)*(preT.RowNNZ(a1)+post.RowNNZ(a2)))
		AnchorTerms(preT, post, ds, a1, a2, out)
		return out
	}
	preT, post := countCSR(rng, n, r, 0.5, partnerVals), countCSR(rng, n, k, 0.5, partnerVals)
	for a1 := 0; a1 < n; a1++ {
		for a2 := 0; a2 < n; a2++ {
			if !sameBits(terms(preT, post, []*CSR{b, same}, a1, a2), terms(preT, post, []*CSR{c, same}, a1, a2)) {
				fail(fmt.Sprintf("AnchorTerms(d = m, %d, %d)", a1, a2))
			}
		}
	}
	post2, preT2 := countCSR(rng, 2, n, 0.5, partnerVals), countCSR(rng, 2, n, 0.5, partnerVals)
	dk, dn := []*CSR{countCSR(rng, k, n, 0.5, blockVals)}, []*CSR{countCSR(rng, n, k, 0.5, blockVals)}
	for i := 0; i < r; i++ {
		for a := 0; a < 2; a++ {
			if !sameBits(terms(b, post2, dk, i, a), terms(c, post2, dk, i, a)) || !sameBits(terms(preT2, b, dn, a, i), terms(preT2, c, dn, a, i)) {
				fail(fmt.Sprintf("AnchorTerms(preT or post = m, %d, %d)", i, a))
			}
		}
	}
	if mat := mBlockMaterializations.Value() - mat0; mat != 0 {
		t.Fatalf("%v as a block: the walking readers materialised it %d times", c, mat)
	}

	// The readers that need compressed arrays build them afresh, and
	// count each time.
	cr, cc, crp, cci, cv := c.Raw()
	br, bc, brp, bci, bv := b.Raw()
	if cr != br || cc != bc || !slices.Equal(crp, brp) || !slices.Equal(cci, bci) || !sameBits(cv, bv) {
		fail("Raw")
	}
	for i := 0; i < r; i++ {
		ci, cv := c.RowSlice(i)
		bi, bv := b.RowSlice(i)
		if !slices.Equal(ci, bi) || !sameBits(cv, bv) {
			fail(fmt.Sprintf("RowSlice(%d)", i))
		}
	}
	if scaled := b.Scale(2.5); !scaled.Equal(c.Scale(2.5)) || scaled.Block() {
		fail("Scale")
	}
	bt := countCSR(rng, n, k, 0.5, []float64{1})
	gja, gjb, gok := JointFactors([]*CSR{b, b}, []*CSR{bt, bt})
	wja, wjb, wok := JointFactors([]*CSR{c, c}, []*CSR{bt, bt})
	if gok != wok || (gok && (!gja.Equal(wja) || !gjb.Equal(wjb))) {
		fail("JointFactors")
	}
	if got, want := mBlockMaterializations.Value()-mat0, int64(1+r+1+2); got != want {
		t.Fatalf("%v as a block: Raw, %d RowSlices, Scale and JointFactors counted %d materialisations, want %d", c, r, got, want)
	}
}

// TestBlockLayoutMatchesCSR draws integer matrices on both sides of the
// ⅛ rule, with values 0, 1, 255, 256 and a fraction among them. Every
// product of two counts (non-negative integer operands) that the
// symbolic pass shows at least ⅛ full and that holds integers in 0…255
// comes out a block, every other product compressed, and both equal the
// dense reference; every matrix a block can hold answers every method
// and kernel as its compressed twin does.
func TestBlockLayoutMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var blocks, compressed int
	for _, sh := range [][3]int{{1, 1, 1}, {3, 4, 5}, {8, 1, 8}, {9, 16, 40}, {70, 12, 66}, {33, 40, 2}} {
		for _, density := range []float64{0.02, 0.1, 0.125, 0.3, 0.9} {
			for _, vals := range [][]float64{blockVals, {1, 128, 255}, {1, 256}, {1, 2, 0.5}} {
				a := countCSR(rng, sh[0], sh[1], density, vals)
				bm := countCSR(rng, sh[1], sh[2], density, vals)
				for _, workers := range []int{1, 4} {
					p := matMul(a, bm, workers)
					ref := denseMul(a, bm)
					if !sliceEq(p.ToDense(), ref, 0) {
						t.Fatalf("%v·%v (%v, %d workers) differs from the dense reference", a, bm, vals, workers)
					}
					checkWellFormed(t, p)
					symbolic := MatMul(pattern(a), pattern(bm)).NNZ()
					fits := true
					for _, v := range ref {
						fits = fits && v >= 0 && v <= 255 && v == math.Trunc(v)
					}
					if want := symbolic > 0 && sh[0]*sh[2] <= 8*symbolic && fits && integral(a) && integral(bm); p.Block() != want {
						t.Fatalf("%v·%v (%v): block %v, want %v (%d of %d cells touched)", a, bm, vals, p.Block(), want, symbolic, sh[0]*sh[2])
					}
				}
				if p := MatMul(a, bm); p.Block() {
					blocks++
					checkBlockTwin(t, referenceMatMul(a, bm), p, rng)
				} else if blk := blockOf(p); blk != nil && p.NNZ() > 0 {
					compressed++
					checkBlockTwin(t, p, blk, rng)
				}
			}
		}
	}
	if blocks == 0 || compressed == 0 {
		t.Fatalf("fixture built %d block products and %d compressed ones it could twin; it must reach both", blocks, compressed)
	}
}

// pattern is m's structure: one wherever m stores an entry, so a
// product of patterns stores the cells a symbolic pass touches.
func pattern(m *CSR) *CSR { return m.Binarize() }

// FuzzBlock derives a matrix from the fuzzed bytes — shape, density and
// a value palette that a block may or may not hold — and checks its
// block twin, when it has one, against it, and its product with its own
// transpose against the dense reference.
func FuzzBlock(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(200), uint8(0))
	f.Add(int64(2), uint8(30), uint8(9), uint8(40), uint8(1))
	f.Add(int64(3), uint8(1), uint8(1), uint8(255), uint8(2))
	f.Add(int64(4), uint8(64), uint8(70), uint8(20), uint8(3))
	f.Add(int64(5), uint8(0), uint8(7), uint8(255), uint8(0))
	// Marginals over a 17×71 block whose rows are walked by some of its
	// twin's regimes and probed by others: reading every row one way
	// changes a sum with a fraction in it.
	f.Add(int64(-162), uint8(17), uint8(71), uint8(63), uint8(92))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, density, palette uint8) {
		rng := rand.New(rand.NewSource(seed))
		vals := [][]float64{blockVals, {255}, {1, 256}, {3, 0.5}}[palette%4]
		m := countCSR(rng, int(rows)%80, int(cols)%80, float64(density)/255, vals)
		if blk := blockOf(m); blk != nil {
			checkBlockTwin(t, m, blk, rng)
		}
		p := MatMulParallel(m, m.T())
		if !sliceEq(p.ToDense(), denseMul(m, m.T()), 0) {
			t.Fatalf("%v·%vᵀ differs from the dense reference", m, m)
		}
		checkWellFormed(t, p)
	})
}
