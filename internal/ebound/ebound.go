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
// expression C + Σ_i A_i·ξ_i where each |ξ_i| ≤ ε·w_i, given the
// denominator den = Σ_i |A_i·w_i| summed in component order. In absolute
// mode all weights w_i are 1 (Lemma 1: ε = |C| / Σ|A_i|); in relative mode
// w_i is the magnitude of the perturbed component (ε = |C| / Σ|A_i·x_i|).
// A zero denominator means the expression ignores the perturbation: +Inf.
// A zero C means the sign is not strictly preservable: 0.
func signEB(c, den float64) float64 {
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

// minNaN is math.Min for operands that are never −0: NaN when either
// operand is NaN, else the smaller one.
func minNaN(x, y float64) float64 {
	if x < y || math.IsNaN(x) {
		return x
	}
	return y
}

// linearization holds one cell's barycentric numerators as affine
// functions of a perturbation ξ of the centre's components: numerator k is
// d[k] + Σ_i (p[i][k] − d[k])·ξ_i, and their sum is m + Σ_i (pm[i] − m)·ξ_i.
// Every numerator is linear in the perturbation, so one evaluation of the
// cell and one per perturbed component give all of them exactly; the bound
// for any k then reads them without evaluating the cell again. n is the
// number of components, 2 or 3.
type linearization struct {
	d  [4]float64    // numerators of the unperturbed cell (three in 2D)
	m  float64       // their sum M
	p  [3][4]float64 // numerators with component i of the centre raised by 1
	pm [3]float64    // their sums
	n  int
}

// numeratorEB returns the largest ε that keeps the sign of numerator k
// under any perturbation |ξ_i| ≤ ε·w_i: C = d_k, A_i = p_ik − d_k.
func (l *linearization) numeratorEB(k int, w *[3]float64) float64 {
	c := l.d[k]
	den := math.Abs(float64((l.p[0][k]-c)*w[0])) + math.Abs(float64((l.p[1][k]-c)*w[1]))
	if l.n == 3 {
		den += math.Abs(float64((l.p[2][k] - c) * w[2]))
	}
	return signEB(c, den)
}

// restEB is numeratorEB for M minus numerator k: C = M − d_k,
// A_i = (M_i − p_ik) − C.
func (l *linearization) restEB(k int, w *[3]float64) float64 {
	c := l.m - l.d[k]
	den := math.Abs(float64(((l.pm[0]-l.p[0][k])-c)*w[0])) + math.Abs(float64(((l.pm[1]-l.p[1][k])-c)*w[1]))
	if l.n == 3 {
		den += math.Abs(float64(((l.pm[2] - l.p[2][k]) - c) * w[2]))
	}
	return signEB(c, den)
}

// coupled is Theorem 1's bound for a critical-point-free cell: the largest
// per-k bound over the k in the eligible mask, the coordinates μ_k outside
// [0, 1], since keeping any one of them outside keeps the zero out. The
// bound of k keeps the signs of numerator k and of M minus it, so it is
// the smaller of numeratorEB and restEB. The caller needs the cell's bound
// only when it is below floor: coupled returns it then, and otherwise some
// value at least floor. So it stops once a k's bound reaches floor, and
// skips restEB where numeratorEB is already no more than the best so far,
// since that k can then neither raise the best nor reach floor.
func (l *linearization) coupled(eligible uint8, w *[3]float64, floor float64) float64 {
	best := 0.0
	for k := 0; k <= l.n; k++ {
		if eligible>>k&1 == 0 {
			continue
		}
		e := l.numeratorEB(k, w)
		if e <= best {
			continue
		}
		e = minNaN(e, l.restEB(k, w))
		if e > best {
			best = e
		}
		if e >= floor {
			break
		}
	}
	return best
}

// sos is the cpSZ-sos bound: the smallest per-k bound, keeping the sign of
// every numerator.
func (l *linearization) sos(w *[3]float64) float64 {
	best := math.Inf(1)
	for k := 0; k <= l.n; k++ {
		if e := minNaN(l.numeratorEB(k, w), l.restEB(k, w)); e < best {
			best = e
		}
	}
	return best
}

// unit[i] raises component i by one. Adding the zeros too keeps the float
// operations those of the reference derivation, where x + 0 maps −0 to +0.
var unit = [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}

// perturbWeights returns signEB's weights for the n components of the
// centre x: 1 in absolute mode, |x_i| otherwise.
func perturbWeights(x *[3]float64, n int, mode Mode) (w [3]float64) {
	for i := 0; i < n; i++ {
		if mode == Absolute {
			w[i] = 1
		} else {
			w[i] = math.Abs(x[i])
		}
	}
	return w
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

// vertexBound is the one derivation kernel: one pass over the star of
// vertex idx that evaluates each minor and face determinant once for all
// the cells sharing it (star.go).
func vertexBound(f *field.Field, idx int, mode Mode, sos bool) (eb float64, hasCP bool) {
	t := &star2D
	if f.Dim() == 3 {
		t = &star3D
	}
	var s starValues
	s.load(t, f, idx)
	return s.bound(t, mode, sos)
}

// bound derives the bound of the loaded star. Every present cell's
// unperturbed numerators are checked for a critical point before any
// perturbed work; then each cell is linearized from the shared perturbed
// determinants and its bound taken, the coupled one stopping at the first
// k whose bound reaches the star's running minimum. No cell bound is NaN,
// so neither the minimum, the stop at a critical-point cell nor the early
// exit depends on the order in which the star is visited.
func (s *starValues) bound(t *star, mode Mode, sos bool) (eb float64, hasCP bool) {
	s.numerators(t)
	if !sos {
		for c := range t.cells {
			if s.present>>c&1 != 0 && s.classify(t, c) {
				return 0, true
			}
		}
	}
	s.perturb(t)
	w := perturbWeights(&s.val[0], t.dim, mode)
	eb = math.Inf(1)
	var l linearization
	for c := range t.cells {
		if s.present>>c&1 == 0 {
			continue
		}
		s.linearize(t, c, &l)
		var cellEB float64
		if sos {
			cellEB = l.sos(&w)
		} else {
			cellEB = l.coupled(s.eligible[c], &w, eb)
		}
		if cellEB < eb {
			eb = cellEB
		}
	}
	return eb, false
}
