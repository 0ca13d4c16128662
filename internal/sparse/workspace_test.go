package sparse

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestEveryReaderLeavesTheWorkspaceZeroed interleaves every reader of
// the pooled row accumulator on one goroutine at GOMAXPROCS 1, so each
// kernel takes the workspace the one before it returned: a compressed
// product, a block product that bails on a cell above 255 and is built
// compressed instead, one that stays a block, MatMulMarginals and a
// wide, ≤ 1 % dense product. Every kernel runs straight after every
// other. A cell or word some reader leaves set
// surfaces as a wrong sum or a stray column further on, so each result
// is checked against a reference that shares no workspace.
func TestEveryReaderLeavesTheWorkspaceZeroed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(31))

	// Positive operands throughout, so no product cancels and a stray
	// column cannot hide among squeezed-out zeros; halves keep this one
	// compressed.
	ma, mb := abs(randCSR(rng, 70, 30, 0.2)).Scale(0.5), abs(randCSR(rng, 30, 300, 0.1))
	wantM := referenceMatMul(ma, mb)

	// Small counts whose product is block-shaped, but for a last row of
	// 100s that takes its cells past 255.
	bld := NewBuilder(40, 20)
	for i := 0; i < 40; i++ {
		for k := 0; k < 20; k++ {
			if i == 39 {
				bld.Add(i, k, 100)
			} else if rng.Intn(2) == 0 {
				bld.Add(i, k, float64(1+rng.Intn(2)))
			}
		}
	}
	ba := bld.Build()
	bb := countCSR(rng, 20, 200, 0.5, []float64{1, 2})
	wantB := referenceMatMul(ba, bb)
	if !BlockShape(wantB.rows, wantB.cols, wantB.NNZ()) || slices.Max(wantB.val) <= 255 {
		t.Fatal("fixture lost its block-shaped product with a cell above 255")
	}

	ca, cb := countCSR(rng, 40, 20, 0.5, []float64{1, 2}), countCSR(rng, 20, 200, 0.5, []float64{1, 2})
	wantC := referenceMatMul(ca, cb)

	x, y := abs(randCSR(rng, 50, 30, 0.2)), abs(randCSR(rng, 30, 300, 0.1))
	stacks := []*CSR{randCSR(rng, 50, 300, 0.3), randCSR(rng, 50, 300, 0.02), countCSR(rng, 50, 300, 0.9, []float64{1, 3})}
	ds := []*CSR{stacks[0], stacks[1], stacks[2], blockOf(stacks[2])}
	var wantRows, wantCols [][]float64
	for _, d := range stacks {
		h := referenceHadamard(referenceMatMul(x, y), d)
		wantRows, wantCols = append(wantRows, h.RowSums()), append(wantCols, h.ColSums())
	}
	wantRows, wantCols = append(wantRows, wantRows[2]), append(wantCols, wantCols[2])

	wa, wb := abs(randCSR(rng, 90, 30, 0.1)), abs(randCSR(rng, 30, 4160, 0.005))
	wantW := referenceMatMul(wa, wb)

	type reader struct {
		name string
		run  func() bool
	}
	readers := []reader{
		{"compressed MatMul", func() bool { return MatMul(ma, mb).Equal(wantM) }},
		{"bailing block MatMul", func() bool {
			got := MatMul(ba, bb)
			return got.block == nil && got.Equal(wantB)
		}},
		{"block MatMul", func() bool {
			got := MatMul(ca, cb)
			return got.block != nil && got.Equal(wantC)
		}},
		{"MatMulMarginals", func() bool {
			rows, cols := MatMulMarginals(x, y, ds)
			for s := range ds {
				if !slices.Equal(rows[s], wantRows[s]) || !slices.Equal(cols[s], wantCols[s]) {
					return false
				}
			}
			return true
		}},
		{"wide MatMul", func() bool { return MatMul(wa, wb).Equal(wantW) }},
	}
	for _, first := range readers {
		for _, next := range readers {
			for _, rd := range [...]reader{first, next} {
				if !rd.run() {
					t.Fatalf("%s, run after %s: differs from its reference", rd.name, first.name)
				}
			}
		}
	}
}
