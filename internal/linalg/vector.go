// Package linalg provides the dense linear-algebra kernels used by the
// ActiveIter model: vectors, row-major dense matrices, the Cholesky
// factorization, and the ridge-regression closed form
//
//	w = c (I + c XᵀX)⁻¹ Xᵀ y
//
// from Section III-D of the paper. Everything is implemented with the
// standard library only. Feature dimensionality in this system is small
// (tens), so the dense kernels favour clarity and numerical robustness
// over blocking tricks.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector of float64 values.
type Vector []float64

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product ⟨v, w⟩. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot dimension mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm ‖v‖₂.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// Norm1 returns the L1 norm ‖v‖₁ = Σ|vᵢ|. The paper's convergence
// criterion (Fig. 3) is Δy = ‖yᵢ − yᵢ₋₁‖₁.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the max-abs norm ‖v‖∞.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// AXPY computes v ← v + alpha·w in place. It panics if lengths differ.
func (v Vector) AXPY(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AXPY dimension mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// Scale multiplies every entry of v by alpha in place.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sub returns v − w as a new vector. It panics if lengths differ.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Sub dimension mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Add returns v + w as a new vector. It panics if lengths differ.
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Add dimension mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// EqualApprox reports whether v and w have the same length and every pair
// of entries differs by at most tol.
func (v Vector) EqualApprox(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Sum returns the sum of all entries.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
