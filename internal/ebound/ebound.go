// Package ebound derives the coupled per-vertex error bounds that make
// lossy compression critical-point preserving. For every cell adjacent to
// the vertex being compressed, it computes the largest perturbation of that
// vertex's vector components that provably cannot create a false-positive
// critical point (Theorem 1 of the paper for point-wise relative bounds,
// and the Lemma 1 derivation of §VI-B for the absolute bounds TspSZ
// introduces). Cells that do contain a critical point force the vertex to
// be encoded losslessly (the "revised cpSZ" of §IV-B, which eliminates
// false negatives and false types and keeps exact positions/eigenvectors).
package ebound

import (
	"math"

	"tspsz/internal/field"
	"tspsz/internal/mat"
)

// Mode selects the error-control flavour.
type Mode int

const (
	// Relative is cpSZ's original point-wise relative error control:
	// |x−x′| ≤ ε_r·|x| per component (Theorem 1).
	Relative Mode = iota
	// Absolute is the absolute error control TspSZ derives in §VI-B:
	// |x−x′| ≤ ε_a per component (Lemma 1).
	Absolute
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Absolute {
		return "abs"
	}
	return "rel"
}

// signEB returns the maximal error bound keeping the sign of the linear
// expression C + Σ_i A_i·ξ_i where each |ξ_i| ≤ ε·w_i. In absolute mode all
// weights w_i are 1 (Lemma 1: ε = |C| / Σ|A_i|); in relative mode w_i is
// the magnitude of the perturbed component (ε = |C| / Σ|A_i·x_i|).
// A zero denominator means the expression ignores the perturbation: +Inf.
// A zero C means the sign is not strictly preservable: 0.
func signEB(c float64, coeffs, weights *[3]float64, n int) float64 {
	den := 0.0
	for i := 0; i < n; i++ {
		den += math.Abs(coeffs[i] * weights[i])
	}
	//lint:allow floatcmp den is a sum of |a_i·w_i|: exactly zero iff every term is ±0, the perturbation-free case
	if den == 0 {
		return math.Inf(1)
	}
	//lint:allow floatcmp an exactly-zero C has no strict sign to preserve; any perturbation may flip it, so the bound is 0
	if c == 0 {
		return 0
	}
	// Shave a relative safety margin: at exactly |ξ_i| = ε·w_i the
	// expression touches zero and floating-point rounding could push it
	// across. The margin is orders of magnitude above the accumulated
	// rounding error, keeping sign preservation strict.
	const margin = 1 - 1e-9
	return math.Abs(c) / den * margin
}

// linearization holds one cell's barycentric numerators as affine
// functions of a perturbation ξ of vertex cur's components: numerator k is
// d[k] + Σ_i (p[i][k] − d[k])·ξ_i, and their sum is m + Σ_i (pm[i] − m)·ξ_i.
// Every numerator is linear in the perturbation, so one evaluation of the
// cell and one per perturbed component give all of them exactly; the bound
// for any k then reads them without evaluating the cell again.
type linearization struct {
	d  [4]float64    // numerators of the unperturbed cell (three in 2D)
	m  float64       // their sum M
	p  [3][4]float64 // numerators with component i of vertex cur raised by 1
	pm [3]float64    // their sums
}

// unit[i] raises component i by one. Adding the zeros too keeps the float
// operations those of the reference derivation, where x + 0 maps −0 to +0.
var unit = [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}

// holdsCP reports whether the cell contains a critical point: M ≠ 0 and
// every barycentric coordinate d[k]/M of the nv vertices lies in [0, 1].
// A NaN coordinate fails neither comparison, so a NaN cell counts as
// holding one and its vertex is stored losslessly.
func (l *linearization) holdsCP(nv int) bool {
	//lint:allow floatcmp exact-zero degeneracy guard before dividing by M; a degenerate cell holds no critical point
	if l.m == 0 {
		return false
	}
	for k := 0; k < nv; k++ {
		if mu := l.d[k] / l.m; mu < 0 || mu > 1 {
			return false
		}
	}
	return true
}

// bound returns the largest ε that keeps the signs of numerator k and of
// M minus it under any perturbation |ξ_i| ≤ ε·w_i of the n components.
func (l *linearization) bound(k, n int, w *[3]float64) float64 {
	c0, c1 := l.d[k], l.m-l.d[k]
	var a0, a1 [3]float64
	for i := 0; i < n; i++ {
		a0[i] = l.p[i][k] - c0
		a1[i] = (l.pm[i] - l.p[i][k]) - c1
	}
	return math.Min(signEB(c0, &a0, w, n), signEB(c1, &a1, w, n))
}

// coupled is Theorem 1's bound for a critical-point-free cell of nv
// vertices: the largest per-k bound over the coordinates that lie outside
// [0, 1], since keeping any one of them outside keeps the zero out. In a
// degenerate cell (M = 0) every k counts as outside.
func (l *linearization) coupled(nv, n int, w *[3]float64) float64 {
	best := 0.0
	for k := 0; k < nv; k++ {
		//lint:allow floatcmp exact-zero division guard; the derived bound itself is sign-safe for any M != 0
		if l.m != 0 {
			if mu := l.d[k] / l.m; mu >= 0 && mu <= 1 {
				continue
			}
		}
		if e := l.bound(k, n, w); e > best {
			best = e
		}
	}
	return best
}

// sos is the cpSZ-sos bound: the smallest per-k bound, keeping the sign of
// every numerator.
func (l *linearization) sos(nv, n int, w *[3]float64) float64 {
	best := math.Inf(1)
	for k := 0; k < nv; k++ {
		if e := l.bound(k, n, w); e < best {
			best = e
		}
	}
	return best
}

// numerators2D returns critical.Barycentric2D(*v) by the same float
// operations, except that numerator skip, the one that does not read
// v[skip], is taken as given when skip ≥ 0.
func numerators2D(v *[3][2]float64, skip int, given float64) (d [4]float64, m float64) {
	if skip != 0 {
		d[0] = mat.Det2(v[1][0], v[2][0], v[1][1], v[2][1])
	}
	if skip != 1 {
		d[1] = mat.Det2(v[2][0], v[0][0], v[2][1], v[0][1])
	}
	if skip != 2 {
		d[2] = mat.Det2(v[0][0], v[1][0], v[0][1], v[1][1])
	}
	if skip >= 0 {
		d[skip] = given
	}
	return d, d[0] + d[1] + d[2]
}

// det3 is the determinant of the matrix with columns a, b, c, as
// critical.Barycentric3D evaluates it.
func det3(a, b, c *[3]float64) float64 {
	return mat.Det3([9]float64{
		a[0], b[0], c[0],
		a[1], b[1], c[1],
		a[2], b[2], c[2],
	})
}

// numerators3D is numerators2D's tetrahedral analogue, repeating
// critical.Barycentric3D.
func numerators3D(v *[4][3]float64, skip int, given float64) (d [4]float64, m float64) {
	if skip != 0 {
		d[0] = -det3(&v[1], &v[2], &v[3])
	}
	if skip != 1 {
		d[1] = det3(&v[0], &v[2], &v[3])
	}
	if skip != 2 {
		d[2] = -det3(&v[0], &v[1], &v[3])
	}
	if skip != 3 {
		d[3] = det3(&v[0], &v[1], &v[2])
	}
	if skip >= 0 {
		d[skip] = given
	}
	return d, d[0] + d[1] + d[2] + d[3]
}

// cell2D returns the maximal error bound for perturbing both components of
// vertex cur of a triangle with vertex vectors v, such that the cell cannot
// acquire a false-positive critical point. hasCP reports that the cell
// already contains a critical point, in which case the vertex must be
// stored losslessly and eb is 0. With sos it returns the cpSZ-sos bound
// instead, which keeps the sign of every m_k and M−m_k, and never reports
// hasCP.
//
// Both come from one linearization of the cell. v[cur] is perturbed in
// place and restored before returning.
func cell2D(v *[3][2]float64, cur int, mode Mode, sos bool) (eb float64, hasCP bool) {
	var l linearization
	l.d, l.m = numerators2D(v, -1, 0)
	if !sos && l.holdsCP(3) {
		return 0, true
	}
	x := v[cur]
	for i := 0; i < 2; i++ {
		v[cur] = [2]float64{x[0] + unit[i][0], x[1] + unit[i][1]}
		l.p[i], l.pm[i] = numerators2D(v, cur, l.d[cur])
	}
	v[cur] = x
	w := perturbWeights2D(x, mode)
	if sos {
		return l.sos(3, 2, &w), false
	}
	return l.coupled(3, 2, &w), false
}

func perturbWeights2D(cur [2]float64, mode Mode) [3]float64 {
	if mode == Absolute {
		return [3]float64{1, 1}
	}
	return [3]float64{math.Abs(cur[0]), math.Abs(cur[1])}
}

// cell3D is the tetrahedral analogue of cell2D, using the generalized
// Lemma 1 bound ε = |C| / Σ|A_i| over the three perturbed components.
func cell3D(v *[4][3]float64, cur int, mode Mode, sos bool) (eb float64, hasCP bool) {
	var l linearization
	l.d, l.m = numerators3D(v, -1, 0)
	if !sos && l.holdsCP(4) {
		return 0, true
	}
	x := v[cur]
	for i := 0; i < 3; i++ {
		v[cur] = [3]float64{x[0] + unit[i][0], x[1] + unit[i][1], x[2] + unit[i][2]}
		l.p[i], l.pm[i] = numerators3D(v, cur, l.d[cur])
	}
	v[cur] = x
	w := perturbWeights3D(x, mode)
	if sos {
		return l.sos(4, 3, &w), false
	}
	return l.coupled(4, 3, &w), false
}

func perturbWeights3D(cur [3]float64, mode Mode) [3]float64 {
	if mode == Absolute {
		return [3]float64{1, 1, 1}
	}
	return [3]float64{math.Abs(cur[0]), math.Abs(cur[1]), math.Abs(cur[2])}
}

// VertexBound aggregates the per-cell bounds over all cells adjacent to
// vertex idx of f (Algorithm 1, lines 3-7): the minimum bound across cells.
// hasCP is true when any adjacent cell contains a critical point, which
// forces lossless encoding of the vertex. The field must hold the *current*
// working values: already-compressed vertices carry their decompressed
// values, unprocessed vertices their originals.
func VertexBound(f *field.Field, idx int, mode Mode) (eb float64, hasCP bool) {
	return vertexBound(f, idx, mode, false)
}

// vertexBound takes the minimum of cell2D or cell3D over the star of
// vertex idx, stopping at the first cell that holds a critical point. No
// cell bound is NaN, so neither the minimum nor the stop depends on the
// order in which the star is visited.
func vertexBound(f *field.Field, idx int, mode Mode, sos bool) (eb float64, hasCP bool) {
	g := f.Grid
	i, j, k := g.VertexCoords(idx)
	star := g.Star()
	eb = math.Inf(1)
	for s := range star {
		sc := &star[s]
		if _, ok := g.StarCellAt(sc, i, j, k); !ok {
			continue
		}
		var cellEB float64
		var cellCP bool
		if f.Dim() == 2 {
			var v [3][2]float64
			for r := range v {
				vi := idx + g.VertexIndex(sc.Off[r][0], sc.Off[r][1], 0)
				v[r] = [2]float64{float64(f.U[vi]), float64(f.V[vi])}
			}
			cellEB, cellCP = cell2D(&v, sc.Cur, mode, sos)
		} else {
			var v [4][3]float64
			for r := range v {
				vi := idx + g.VertexIndex(sc.Off[r][0], sc.Off[r][1], sc.Off[r][2])
				v[r] = [3]float64{float64(f.U[vi]), float64(f.V[vi]), float64(f.W[vi])}
			}
			cellEB, cellCP = cell3D(&v, sc.Cur, mode, sos)
		}
		if cellCP {
			return 0, true
		}
		if cellEB < eb {
			eb = cellEB
		}
	}
	return eb, false
}
