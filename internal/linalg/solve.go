package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L·Lᵀ.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle, full n×n storage
}

// NewCholesky factors the symmetric positive definite matrix a.
// Only the lower triangle of a is read. It returns ErrNotSPD if a pivot
// is non-positive.
func NewCholesky(a *Dense) (*Cholesky, error) {
	r, c := a.Dims()
	if r != c {
		return nil, fmt.Errorf("linalg: Cholesky needs a square matrix, got %dx%d", r, c)
	}
	n := r
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotSPD
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// SolveVec solves A·x = b for x, where A is the factored matrix.
// It panics if len(b) does not match the matrix order.
func (ch *Cholesky) SolveVec(b Vector) Vector {
	if len(b) != ch.n {
		panic(fmt.Sprintf("linalg: Cholesky.SolveVec dimension mismatch %d vs %d", len(b), ch.n))
	}
	n, l := ch.n, ch.l
	// Forward substitution: L·z = b.
	z := make(Vector, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * z[k]
		}
		z[i] = sum / l[i*n+i]
	}
	// Backward substitution: Lᵀ·x = z.
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		sum := z[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
	return x
}
