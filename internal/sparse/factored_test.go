package sparse

import (
	"math/rand"
	"slices"
	"testing"
)

// checkFactoredAgainstReference compares both factored kernels with the
// general path they stand in for: Hadamard(MatMul(x, y), d).
func checkFactoredAgainstReference(t *testing.T, x, y *CSR, ds []*CSR) {
	t.Helper()
	prod := MatMul(x, y)
	rowSums, colSums := MatMulMarginals(x, y, ds)
	if len(rowSums) != len(ds) || len(colSums) != len(ds) {
		t.Fatalf("marginals of %d stacks: %d row and %d column sums", len(ds), len(rowSums), len(colSums))
	}
	for k, d := range ds {
		want := Hadamard(prod, d)
		if !slices.Equal(rowSums[k], want.RowSums()) {
			t.Fatalf("stack %d (%v on %v·%v): row sums %v, want %v", k, d, x, y, rowSums[k], want.RowSums())
		}
		if !slices.Equal(colSums[k], want.ColSums()) {
			t.Fatalf("stack %d (%v on %v·%v): column sums %v, want %v", k, d, x, y, colSums[k], want.ColSums())
		}
	}
	// Every cell, probing a right factor without a rank index (nothing
	// above builds one on y; the view shares its entries) and, where the
	// rule gives y one, through it.
	rights := []*CSR{{rows: y.rows, cols: y.cols, rowPtr: y.rowPtr, colIdx: y.colIdx, val: y.val}}
	if y.rank() != nil {
		rights = append(rights, y)
	}
	for _, right := range rights {
		for i := 0; i < x.rows; i++ {
			for j := 0; j < y.cols; j++ {
				if got, want := MatMulAt(x, right, i, j), prod.At(i, j); got != want {
					t.Fatalf("(%v·%v)(%d,%d) = %v, want %v (right factor indexed: %v)", x, y, i, j, got, want, right == y)
				}
			}
		}
	}
}

// factoredFuzzCase derives the operands of one fuzz input: small-integer
// x, y and three stacked counts — one at the fuzzed density, one at a
// sixteenth of it, one empty — so the marginal walk meets counts with
// and without a rank index, longer and shorter than the product's rows.
func factoredFuzzCase(seed int64, rows, inner, cols, density, stackDensity uint8) (x, y *CSR, ds []*CSR) {
	rng := rand.New(rand.NewSource(seed))
	r, c := int(rows)%48, int(cols)%160
	x = randCSR(rng, r, int(inner)%48, float64(density)/255)
	y = randCSR(rng, int(inner)%48, c, float64(density)/255)
	sd := float64(stackDensity) / 255
	return x, y, []*CSR{randCSR(rng, r, c, sd), randCSR(rng, r, c, sd/16), Zero(r, c)}
}

var factoredFuzzSeeds = [][6]int{
	{1, 5, 4, 70, 128, 200},
	{2, 40, 30, 150, 30, 255},
	{3, 47, 47, 159, 255, 40},
	{4, 20, 1, 64, 255, 128},
	{5, 0, 3, 9, 100, 100},
	{6, 9, 0, 65, 100, 100},
	{7, 12, 12, 0, 100, 100},
	{8, 40, 40, 150, 3, 3},
}

// FuzzMatMulMarginals checks MatMulMarginals and MatMulAt against the
// materialised product and stacking on operands derived from the fuzzed
// shape, densities and seed.
func FuzzMatMulMarginals(f *testing.F) {
	for _, s := range factoredFuzzSeeds {
		f.Add(int64(s[0]), uint8(s[1]), uint8(s[2]), uint8(s[3]), uint8(s[4]), uint8(s[5]))
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, inner, cols, density, stackDensity uint8) {
		x, y, ds := factoredFuzzCase(seed, rows, inner, cols, density, stackDensity)
		checkFactoredAgainstReference(t, x, y, ds)
	})
}

// TestFuzzMatMulMarginalsCorpusReachesBothRegimes keeps the seed corpus
// honest: it must stack on counts the rule indexes and on counts it does
// not, and MatMulAt must probe right factors with an index and without.
func TestFuzzMatMulMarginalsCorpusReachesBothRegimes(t *testing.T) {
	var indexed, plain, indexedRight, plainRight int
	for _, s := range factoredFuzzSeeds {
		x, y, ds := factoredFuzzCase(int64(s[0]), uint8(s[1]), uint8(s[2]), uint8(s[3]), uint8(s[4]), uint8(s[5]))
		checkFactoredAgainstReference(t, x, y, ds)
		for _, d := range ds[:2] {
			if d.rankIdx.Load() != nil {
				indexed++
			} else if d.NNZ() > 0 {
				plain++
			}
		}
		if y.rank() != nil {
			indexedRight++
		} else if y.NNZ() > 0 {
			plainRight++
		}
	}
	if indexed == 0 || plain == 0 || indexedRight == 0 || plainRight == 0 {
		t.Errorf("seed corpus stacked on %d indexed and %d plain counts and probed %d indexed and %d plain right factors; it must reach all four",
			indexed, plain, indexedRight, plainRight)
	}
}

// TestMatMulMarginalsNeedsNoStack: with nothing stacked the walk is
// skipped and nothing is returned — the bare product's marginals are two
// matvecs, X·(Y·1) and (1ᵀX)·Y, which equal the materialised sums.
func TestMatMulMarginalsNeedsNoStack(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x, y := randCSR(rng, 30, 20, 0.2), randCSR(rng, 20, 70, 0.3)
	if rs, cs := MatMulMarginals(x, y, nil); len(rs) != 0 || len(cs) != 0 {
		t.Fatalf("no stacks gave %d row and %d column sums", len(rs), len(cs))
	}
	prod := MatMul(x, y)
	if got, want := x.MulVec(y.RowSums()), prod.RowSums(); !slices.Equal(got, want) {
		t.Errorf("X·(Y·1) = %v, want %v", got, want)
	}
	if got, want := y.TMulVec(x.ColSums()), prod.ColSums(); !slices.Equal(got, want) {
		t.Errorf("(1ᵀX)·Y = %v, want %v", got, want)
	}
}

// checkAnchorTermsAgainstWalk sums AnchorTerms over a's entries and
// compares the sums with the walk they replace: MatMulMarginals of
// (pre·a)·post stacked on every d.
func checkAnchorTermsAgainstWalk(t *testing.T, pre, a, post *CSR, ds []*CSR) {
	t.Helper()
	wantRows, wantCols := MatMulMarginals(MatMul(pre, a), post, ds)
	rowSums, colSums := make([][]float64, len(ds)), make([][]float64, len(ds))
	for k := range ds {
		rowSums[k], colSums[k] = make([]float64, pre.rows), make([]float64, post.cols)
	}
	preT := pre.T()
	a.Iterate(func(a1, a2 int, _ float64) {
		us, _ := preT.RowSlice(a1)
		vs, _ := post.RowSlice(a2)
		n := len(us) + len(vs)
		out := make([]float64, len(ds)*n)
		AnchorTerms(preT, post, ds, a1, a2, out)
		for k := range ds {
			for i, u := range us {
				rowSums[k][u] += out[k*n+i]
			}
			for i, v := range vs {
				colSums[k][v] += out[k*n+len(us)+i]
			}
		}
	})
	for k := range ds {
		if !slices.Equal(rowSums[k], wantRows[k]) {
			t.Fatalf("stack %d: summed row terms %v, walk %v", k, rowSums[k], wantRows[k])
		}
		if !slices.Equal(colSums[k], wantCols[k]) {
			t.Fatalf("stack %d: summed column terms %v, walk %v", k, colSums[k], wantCols[k])
		}
	}
}

// anchorFuzzCase derives the operands of one fuzz input: small-integer
// pre and post, a 0/1 anchor matrix drawn with repetition — so an
// endpoint may sit in several anchors and a pair may be drawn twice —
// and the three stacked counts of factoredFuzzCase.
func anchorFuzzCase(seed int64, rows, inner, cols, density, stackDensity, anchors uint8) (pre, a, post *CSR, ds []*CSR) {
	rng := rand.New(rand.NewSource(seed))
	r, n1, n2, c := int(rows)%48, int(inner)%48, (int(inner)+int(seed&7))%48, int(cols)%160
	pre = randCSR(rng, r, n1, float64(density)/255)
	post = randCSR(rng, n2, c, float64(density)/255)
	b := NewBuilder(n1, n2)
	for k := 0; n1 > 0 && n2 > 0 && k < int(anchors)%64; k++ {
		b.Add(rng.Intn(n1), rng.Intn(n2), 1)
	}
	sd := float64(stackDensity) / 255
	return pre, b.Build().Binarize(), post, []*CSR{randCSR(rng, r, c, sd), randCSR(rng, r, c, sd/16), Zero(r, c)}
}

var anchorFuzzSeeds = [][7]int{
	{1, 5, 4, 70, 128, 200, 6},
	{2, 40, 30, 150, 30, 255, 40},
	{3, 47, 12, 159, 255, 40, 63},
	{4, 20, 1, 64, 255, 128, 3},
	{5, 0, 3, 9, 100, 100, 5},
	{6, 9, 0, 65, 100, 100, 5},
	{7, 12, 12, 0, 100, 100, 20},
	{8, 40, 40, 150, 3, 3, 30},
	{9, 30, 20, 100, 60, 255, 0},
}

// FuzzAnchorTerms checks that AnchorTerms, summed over an anchor set,
// gives the row and column sums MatMulMarginals walks off pre·A.
func FuzzAnchorTerms(f *testing.F) {
	for _, s := range anchorFuzzSeeds {
		f.Add(int64(s[0]), uint8(s[1]), uint8(s[2]), uint8(s[3]), uint8(s[4]), uint8(s[5]), uint8(s[6]))
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, inner, cols, density, stackDensity, anchors uint8) {
		pre, a, post, ds := anchorFuzzCase(seed, rows, inner, cols, density, stackDensity, anchors)
		checkAnchorTermsAgainstWalk(t, pre, a, post, ds)
	})
}

// TestFuzzAnchorTermsCorpusReachesBothRegimes: the seed corpus must
// probe stacked counts through a rank index and by merging, and must
// hold an anchor set that is not one-to-one.
func TestFuzzAnchorTermsCorpusReachesBothRegimes(t *testing.T) {
	var indexed, plain, shared int
	for _, s := range anchorFuzzSeeds {
		pre, a, post, ds := anchorFuzzCase(int64(s[0]), uint8(s[1]), uint8(s[2]), uint8(s[3]), uint8(s[4]), uint8(s[5]), uint8(s[6]))
		checkAnchorTermsAgainstWalk(t, pre, a, post, ds)
		for _, d := range ds[:2] {
			if d.rankIdx.Load() != nil {
				indexed++
			} else if d.NNZ() > 0 {
				plain++
			}
		}
		for _, m := range []*CSR{a, a.T()} {
			for i := 0; i < m.rows; i++ {
				if m.RowNNZ(i) > 1 {
					shared++
				}
			}
		}
	}
	if indexed == 0 || plain == 0 || shared == 0 {
		t.Errorf("seed corpus probed %d indexed and %d plain counts over %d anchor sets that are not one-to-one; it must reach all three", indexed, plain, shared)
	}
}

func TestFactoredKernelsPanicOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"at inner":        func() { MatMulAt(Zero(2, 3), Zero(4, 5), 0, 0) },
		"at row":          func() { MatMulAt(Zero(2, 3), Zero(3, 5), 2, 0) },
		"at column":       func() { MatMulAt(Identity(3), Identity(3), 0, 3) },
		"at negative":     func() { MatMulAt(Zero(2, 3), Zero(3, 5), 0, -1) },
		"marginals inner": func() { MatMulMarginals(Zero(2, 3), Zero(4, 5), nil) },
		"marginals rows":  func() { MatMulMarginals(Zero(2, 3), Zero(3, 5), []*CSR{Zero(3, 5)}) },
		"marginals cols":  func() { MatMulMarginals(Zero(2, 3), Zero(3, 5), []*CSR{Zero(2, 5), Zero(2, 4)}) },
		"terms anchor":    func() { AnchorTerms(Zero(3, 2), Zero(4, 5), nil, 3, 0, nil) },
		"terms stack":     func() { AnchorTerms(Identity(3), Identity(3), []*CSR{Zero(3, 4)}, 0, 0, make([]float64, 2)) },
		"terms out":       func() { AnchorTerms(Identity(3), Identity(3), []*CSR{Zero(3, 3)}, 0, 0, make([]float64, 1)) },
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
