package linalg

import "fmt"

// Ridge solves the regularized least-squares problem from the paper's
// internal iteration step (1-1),
//
//	min_w  (c/2)·‖X·w − y‖₂² + (1/2)·‖w‖₂² ,
//
// whose closed-form solution is
//
//	w = c (I + c XᵀX)⁻¹ Xᵀ y = (I/c + XᵀX)⁻¹ Xᵀ y .
//
// X is n×d (one row per candidate anchor link), y is the current label
// vector of length n, and c > 0 weighs the fit against the regularizer.
// The d×d system is solved with a Cholesky factorization; I/c + XᵀX is
// symmetric positive definite for any c > 0.
type Ridge struct {
	x    *Compressed // the design matrix's non-zeros; Solve forms Xᵀy from them
	chol *Cholesky   // factorization of XᵀX + I/c
}

// NewRidge prepares a ridge solver for the design matrix x with fit
// weight c. The Gram matrix is computed and factored once; repeated
// Solve calls with different label vectors reuse the factorization,
// which is exactly the access pattern of ActiveIter's alternating
// updates (w depends on y through Xᵀy only).
func NewRidge(x *Dense, c float64) (*Ridge, error) {
	return NewRidgeCompressed(Compress(x), c)
}

// NewRidgeCompressed is NewRidge for a caller that already holds the
// compressed design matrix — the training loop scores with the same
// copy.
func NewRidgeCompressed(x *Compressed, c float64) (*Ridge, error) {
	if c <= 0 {
		return nil, fmt.Errorf("linalg: ridge weight c must be positive, got %v", c)
	}
	g := x.Gram()
	d := g.Rows()
	for i := 0; i < d; i++ {
		g.Inc(i, i, 1/c)
	}
	chol, err := NewCholesky(g)
	if err != nil {
		return nil, fmt.Errorf("linalg: ridge normal equations not SPD: %w", err)
	}
	return &Ridge{x: x, chol: chol}, nil
}

// Solve returns w = (I/c + XᵀX)⁻¹ Xᵀ y for the design matrix given at
// construction. x must be that matrix: Xᵀy is formed from the non-zeros
// compressed then, and x is only checked against their shape.
func (r *Ridge) Solve(x *Dense, y Vector) Vector {
	if x.rows != r.x.rows || x.cols != r.x.cols {
		panic(fmt.Sprintf("linalg: Ridge.Solve with a %dx%d matrix, built over %dx%d", x.rows, x.cols, r.x.rows, r.x.cols))
	}
	return r.chol.SolveVec(r.x.TMulVec(y))
}

// RidgeSolve is a one-shot convenience wrapper around NewRidge + Solve.
func RidgeSolve(x *Dense, y Vector, c float64) (Vector, error) {
	r, err := NewRidge(x, c)
	if err != nil {
		return nil, err
	}
	return r.Solve(x, y), nil
}
