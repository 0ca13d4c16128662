package linalg

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD returns BᵀB + I which is symmetric positive definite.
func randomSPD(rng *rand.Rand, n int) *Dense {
	b := randomDense(rng, n+2, n)
	g := b.Gram()
	for i := 0; i < n; i++ {
		g.Inc(i, i, 1)
	}
	return g
}

func TestCholeskySolveKnown(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 9] → x = [1.5, 2].
	a := NewDenseFrom(2, 2, []float64{4, 2, 2, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	x := ch.SolveVec(Vector{10, 9})
	if !x.EqualApprox(Vector{1.5, 2}, 1e-12) {
		t.Errorf("x = %v, want [1.5 2]", x)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{0, 0, 0, -1})
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewDense(2, 3)); err == nil {
		t.Error("expected error for non-square input")
	}
}

func TestCholeskySolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 20; n++ {
		a := randomSPD(rng, n)
		want := make(Vector, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := ch.SolveVec(b)
		if !got.EqualApprox(want, 1e-7*float64(n)) {
			t.Fatalf("n=%d: solve mismatch\n got %v\nwant %v", n, got, want)
		}
	}
}

// Every kernel that documents a shape panic raises it instead of reading
// past a slice or returning a silently truncated result.
func TestShapeMismatchPanics(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{4, 2, 2, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := NewRidge(NewDense(3, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, v3 := Vector{1, 2}, Vector{1, 2, 3}
	tests := []struct {
		name string
		fn   func()
	}{
		{"cholesky-solve", func() { ch.SolveVec(v3) }},
		{"ridge-solve", func() { ridge.Solve(NewDense(4, 2), Vector{1, 2, 3, 4}) }},
		{"vector-axpy", func() { v2.Clone().AXPY(1, v3) }},
		{"vector-add", func() { v2.Add(v3) }},
		{"vector-sub", func() { v2.Sub(v3) }},
		{"dense-add", func() { a.Add(NewDense(2, 3)) }},
		{"dense-sub", func() { a.Sub(NewDense(3, 2)) }},
		{"dense-mul", func() { a.Mul(NewDense(3, 2)) }},
		{"dense-mulvec", func() { a.MulVec(v3) }},
		{"dense-mulvecinto-dst", func() { a.MulVecInto(v3, v2) }},
		{"dense-tmulvec", func() { a.TMulVec(v3) }},
		{"compressed-mulvecinto-dst", func() { Compress(a).MulVecInto(v3, v2) }},
		{"compressed-rows-operand", func() { Compress(a).MulVecRowsInto(v2, v3, 0, 2) }},
		{"compressed-rows-past-end", func() { Compress(a).MulVecRowsInto(v3, v2, 1, 3) }},
		{"compressed-rows-reversed", func() { Compress(a).MulVecRowsInto(v2, v2, 2, 1) }},
		{"compressed-rows-short-dst", func() { Compress(a).MulVecRowsInto(Vector{0}, v2, 0, 2) }},
		{"dense-negative", func() { NewDense(-1, 2) }},
		{"dense-rowview", func() { a.RowView(2) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on shape mismatch")
				}
			}()
			tc.fn()
		})
	}
}

// Property: Cholesky solution satisfies residual ‖Ax−b‖ ≈ 0.
func TestCholeskyResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a := randomSPD(rng, n)
		b := make(Vector, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := ch.SolveVec(b)
		resid := a.MulVec(x).Sub(b)
		return resid.NormInf() <= 1e-6*(1+b.NormInf())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRidgeMatchesNormalEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randomDense(rng, 40, 6)
	y := make(Vector, 40)
	for i := range y {
		y[i] = rng.Float64()
	}
	for _, c := range []float64{0.1, 1, 10} {
		w, err := RidgeSolve(x, y, c)
		if err != nil {
			t.Fatalf("c=%v: %v", c, err)
		}
		// Verify the stationarity condition c·Xᵀ(Xw−y) + w = 0.
		grad := x.TMulVec(x.MulVec(w).Sub(y))
		grad.Scale(c)
		grad.AXPY(1, w)
		if grad.NormInf() > 1e-8 {
			t.Errorf("c=%v: gradient not zero: %v", c, grad.NormInf())
		}
	}
}

func TestRidgeShrinksWithSmallC(t *testing.T) {
	// As c → 0 the regularizer dominates and ‖w‖ → 0.
	rng := rand.New(rand.NewSource(23))
	x := randomDense(rng, 30, 4)
	y := make(Vector, 30)
	for i := range y {
		y[i] = 1
	}
	wBig, err := RidgeSolve(x, y, 100)
	if err != nil {
		t.Fatal(err)
	}
	wSmall, err := RidgeSolve(x, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if wSmall.Norm2() >= wBig.Norm2() {
		t.Errorf("‖w(c=1e-6)‖=%v should be < ‖w(c=100)‖=%v", wSmall.Norm2(), wBig.Norm2())
	}
	if wSmall.Norm2() > 1e-3 {
		t.Errorf("‖w‖ = %v, want ≈0 for tiny c", wSmall.Norm2())
	}
}

func TestRidgeRejectsBadC(t *testing.T) {
	x := NewDense(3, 2)
	if _, err := NewRidge(x, 0); err == nil {
		t.Error("expected error for c=0")
	}
	if _, err := NewRidge(x, -1); err == nil {
		t.Error("expected error for c<0")
	}
}

func TestRidgeReusesFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	x := randomDense(rng, 25, 5)
	r, err := NewRidge(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		y := make(Vector, 25)
		for i := range y {
			y[i] = rng.Float64()
		}
		got := r.Solve(x, y)
		want, err := RidgeSolve(x, y, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualApprox(want, 1e-10) {
			t.Fatalf("reused solve differs from fresh solve")
		}
	}
}
