package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// The dense kernels Dense.MulVecInto, Dense.TMulVec and Dense.Gram are
// what the training loop ran before it compressed its design matrix.
// They stay in use elsewhere and are the reference here: Compressed
// must return their floats bit for bit, non-finite operands included.

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sparseDense draws a rows×cols matrix with the given share of non-zero
// cells; zeros come in both signs and values span magnitudes whose
// products overflow and underflow.
func sparseDense(rng *rand.Rand, rows, cols int, density float64, special []float64) *Dense {
	vals := []float64{1, -1, 0.5, 3, 1e-200, -1e200, 2.5e-310}
	x := NewDense(rows, cols)
	for k := range x.data {
		switch {
		case rng.Float64() < density:
			x.data[k] = vals[rng.Intn(len(vals))]
		case rng.Intn(4) == 0:
			x.data[k] = math.Copysign(0, -1)
		}
		if len(special) > 0 && rng.Intn(40) == 0 {
			x.data[k] = special[rng.Intn(len(special))]
		}
	}
	return x
}

func randomVector(rng *rand.Rand, n int, special []float64) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = []float64{0, 1, -2, 0.25, 1e200, -1e-200, math.Copysign(0, -1)}[rng.Intn(7)]
		if len(special) > 0 && rng.Intn(6) == 0 {
			v[i] = special[rng.Intn(len(special))]
		}
	}
	return v
}

func TestCompressedMatchesDenseKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, sh := range [][2]int{{0, 0}, {0, 3}, {3, 0}, {1, 1}, {5, 2}, {40, 7}, {200, 32}} {
		for _, density := range []float64{0, 0.1, 0.5, 1} {
			for _, cells := range [][]float64{nil, nonFinite} {
				x := sparseDense(rng, sh[0], sh[1], density, cells)
				c := Compress(x)
				if r, cl := c.Dims(); r != sh[0] || cl != sh[1] {
					t.Fatalf("Dims %dx%d, want %dx%d", r, cl, sh[0], sh[1])
				}
				if got, want := c.Gram(), x.Gram(); !bitsEqual(got.data, want.data) {
					t.Fatalf("%dx%d density %v special %v: Gram differs", sh[0], sh[1], density, cells != nil)
				}
				for _, operand := range [][]float64{nil, nonFinite} {
					w := randomVector(rng, sh[1], operand)
					got := c.MulVecInto(make(Vector, sh[0]), w)
					if want := x.MulVecInto(make(Vector, sh[0]), w); !bitsEqual(got, want) {
						t.Fatalf("%dx%d density %v: X·%v = %v, dense %v", sh[0], sh[1], density, w, got, want)
					}
					// Row ranges of any length, written last first, assemble
					// the same floats.
					ranged := make(Vector, sh[0])
					for hi := sh[0]; hi > 0; {
						lo := max(0, hi-1-rng.Intn(9))
						c.MulVecRowsInto(ranged, w, lo, hi)
						hi = lo
					}
					if !bitsEqual(ranged, got) {
						t.Fatalf("%dx%d density %v: X·%v by row ranges = %v, whole %v", sh[0], sh[1], density, w, ranged, got)
					}
					y := randomVector(rng, sh[0], operand)
					if got, want := c.TMulVec(y), x.TMulVec(y); !bitsEqual(got, want) {
						t.Fatalf("%dx%d density %v: Xᵀ·%v = %v, dense %v", sh[0], sh[1], density, y, got, want)
					}
				}
			}
		}
	}
}

// TestCompressedKeepsOnlyNonZeros: a finite matrix stores its non-zero
// cells and nothing else; one holding a non-finite cell stores them all.
func TestCompressedKeepsOnlyNonZeros(t *testing.T) {
	x := NewDenseFrom(2, 3, []float64{0, 2, math.Copysign(0, -1), 0, 0, 5})
	if c := Compress(x); len(c.val) != 2 || c.col[0] != 1 || c.col[1] != 2 || c.rowPtr[1] != 1 {
		t.Errorf("stored %v at columns %v, rows %v", c.val, c.col, c.rowPtr)
	}
	x.Set(0, 0, math.Inf(1))
	if c := Compress(x); len(c.val) != 6 {
		t.Errorf("matrix with an Inf cell stored %d of 6 cells", len(c.val))
	}
}

// TestRidgeMatchesDenseNormalEquations: NewRidge and Solve over the
// compressed rows return the weights the dense Gram / Xᵀy path did.
func TestRidgeMatchesDenseNormalEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n, d := 20+rng.Intn(200), 1+rng.Intn(12)
		x := NewDense(n, d)
		for k := range x.data {
			if rng.Intn(10) == 0 {
				x.data[k] = rng.Float64()
			}
		}
		y := make(Vector, n)
		for i := range y {
			y[i] = float64(rng.Intn(2))
		}
		c := []float64{1, 0.1, 25}[trial%3]
		g := x.Gram()
		for i := 0; i < d; i++ {
			g.Inc(i, i, 1/c)
		}
		chol, err := NewCholesky(g)
		if err != nil {
			t.Fatal(err)
		}
		want := chol.SolveVec(x.TMulVec(y))
		r, err := NewRidge(x, c)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Solve(x, y); !bitsEqual(got, want) {
			t.Fatalf("trial %d: w = %v, dense normal equations give %v", trial, got, want)
		}
	}
}
