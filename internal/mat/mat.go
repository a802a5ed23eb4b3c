// Package mat provides the small dense linear algebra primitives TspSZ
// needs: 2×2 and 3×3 determinants and solves, eigenvalue decomposition of
// 2×2 and 3×3 matrices (for Jacobian-based critical point classification),
// and eigenvectors for real eigenvalues (for separatrix seeding).
package mat

import "math"

// Det2 returns the determinant of [[a, b], [c, d]]. Det2 and Det3 write
// every product float64(x*y), the Go spec's barrier against fusing it
// into a multiply-add, so the barycentric numerators built on them round
// as ebound's derivation kernel does on every platform.
func Det2(a, b, c, d float64) float64 { return float64(a*d) - float64(b*c) }

// Det3 returns the determinant of the 3×3 matrix given in row-major order.
func Det3(m [9]float64) float64 {
	return float64(m[0]*(float64(m[4]*m[8])-float64(m[5]*m[7]))) -
		float64(m[1]*(float64(m[3]*m[8])-float64(m[5]*m[6]))) +
		float64(m[2]*(float64(m[3]*m[7])-float64(m[4]*m[6])))
}

// Solve2 solves the 2×2 system [[a,b],[c,d]] x = (e,f) by Cramer's rule.
// ok is false when the matrix is singular (determinant below 1e-300).
func Solve2(a, b, c, d, e, f float64) (x, y float64, ok bool) {
	det := Det2(a, b, c, d)
	if math.Abs(det) < 1e-300 {
		return 0, 0, false
	}
	return (e*d - b*f) / det, (a*f - e*c) / det, true
}

// Solve3 solves the 3×3 system m x = b by Cramer's rule; m is row-major.
func Solve3(m [9]float64, b [3]float64) (x [3]float64, ok bool) {
	det := Det3(m)
	if math.Abs(det) < 1e-300 {
		return x, false
	}
	for col := 0; col < 3; col++ {
		t := m
		for row := 0; row < 3; row++ {
			t[row*3+col] = b[row]
		}
		x[col] = Det3(t) / det
	}
	return x, true
}

// Eigen holds one eigenvalue of a real matrix: Re ± i·Im. Complex
// eigenvalues come in conjugate pairs and carry Im > 0 on one entry.
type Eigen struct {
	Re, Im float64
}

// Eigen2 returns the two eigenvalues of [[a,b],[c,d]].
func Eigen2(a, b, c, d float64) [2]Eigen {
	tr := a + d
	det := Det2(a, b, c, d)
	disc := tr*tr/4 - det
	if disc >= 0 {
		s := math.Sqrt(disc)
		return [2]Eigen{{Re: tr/2 + s}, {Re: tr/2 - s}}
	}
	s := math.Sqrt(-disc)
	return [2]Eigen{{Re: tr / 2, Im: s}, {Re: tr / 2, Im: -s}}
}

// EigenVector2 returns a unit eigenvector of [[a,b],[c,d]] for the real
// eigenvalue lambda. ok is false if the matrix is (numerically) a multiple
// of the identity, in which case any direction is an eigenvector.
func EigenVector2(a, b, c, d, lambda float64) (v [2]float64, ok bool) {
	// (A - λI) v = 0. Pick the row with the larger norm for stability.
	r1 := [2]float64{a - lambda, b}
	r2 := [2]float64{c, d - lambda}
	n1 := r1[0]*r1[0] + r1[1]*r1[1]
	n2 := r2[0]*r2[0] + r2[1]*r2[1]
	r := r1
	if n2 > n1 {
		r = r2
	}
	nr := math.Hypot(r[0], r[1])
	if nr < 1e-14 {
		return [2]float64{1, 0}, false
	}
	// v orthogonal to the chosen row.
	v = [2]float64{-r[1] / nr, r[0] / nr}
	return v, true
}

// Eigen3 returns the three eigenvalues of the row-major 3×3 matrix m,
// computed from the characteristic cubic with Cardano's method. A real
// matrix has either three real eigenvalues or one real plus a conjugate
// complex pair.
func Eigen3(m [9]float64) [3]Eigen {
	// Characteristic polynomial: λ³ - tr·λ² + c1·λ - det = 0.
	tr := m[0] + m[4] + m[8]
	c1 := Det2(m[4], m[5], m[7], m[8]) + Det2(m[0], m[1], m[3], m[4]) + Det2(m[0], m[2], m[6], m[8])
	det := Det3(m)
	return solveCubic(1, -tr, c1, -det)
}

// solveCubic returns the roots of a·x³ + b·x² + c·x + d with a != 0.
func solveCubic(a, b, c, d float64) [3]Eigen {
	b, c, d = b/a, c/a, d/a
	// Depressed cubic t³ + p t + q with x = t - b/3.
	p := c - b*b/3
	q := 2*b*b*b/27 - b*c/3 + d
	shift := -b / 3
	disc := q*q/4 + p*p*p/27
	switch {
	case disc > 1e-14*(1+q*q+p*p): // one real root, complex pair
		s := math.Sqrt(disc)
		u := math.Cbrt(-q/2 + s)
		v := math.Cbrt(-q/2 - s)
		realRoot := u + v + shift
		re := -(u+v)/2 + shift
		im := math.Sqrt(3) / 2 * math.Abs(u-v)
		return [3]Eigen{{Re: realRoot}, {Re: re, Im: im}, {Re: re, Im: -im}}
	case disc < -1e-14*(1+q*q+p*p): // three distinct real roots
		r := math.Sqrt(-p * p * p / 27)
		phi := math.Acos(clamp(-q/(2*r), -1, 1))
		t := 2 * math.Cbrt(r)
		return [3]Eigen{
			{Re: t*math.Cos(phi/3) + shift},
			{Re: t*math.Cos((phi+2*math.Pi)/3) + shift},
			{Re: t*math.Cos((phi+4*math.Pi)/3) + shift},
		}
	default: // repeated real roots
		if math.Abs(q) < 1e-300 && math.Abs(p) < 1e-300 {
			return [3]Eigen{{Re: shift}, {Re: shift}, {Re: shift}}
		}
		u := math.Cbrt(-q / 2)
		return [3]Eigen{{Re: 2*u + shift}, {Re: -u + shift}, {Re: -u + shift}}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// EigenVector3 returns a unit eigenvector of the row-major 3×3 matrix m for
// the real eigenvalue lambda, computed as the largest cross product of two
// rows of (m - λI). ok is false when no stable direction exists (defective
// or near-identity cases).
func EigenVector3(m [9]float64, lambda float64) (v [3]float64, ok bool) {
	a := m
	a[0] -= lambda
	a[4] -= lambda
	a[8] -= lambda
	rows := [3][3]float64{
		{a[0], a[1], a[2]},
		{a[3], a[4], a[5]},
		{a[6], a[7], a[8]},
	}
	best := [3]float64{}
	bestN := 0.0
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			c := cross(rows[i], rows[j])
			n := c[0]*c[0] + c[1]*c[1] + c[2]*c[2]
			if n > bestN {
				bestN = n
				best = c
			}
		}
	}
	if bestN < 1e-24 {
		return [3]float64{1, 0, 0}, false
	}
	n := math.Sqrt(bestN)
	return [3]float64{best[0] / n, best[1] / n, best[2] / n}, true
}

func cross(a, b [3]float64) [3]float64 {
	return [3]float64{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}
