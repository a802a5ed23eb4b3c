package ebound

import (
	"tspsz/internal/critical"
	"tspsz/internal/field"
)

// This file implements the bound used by the cpSZ-sos baseline [36]: rather
// than preserving critical points numerically (with lossless cells), it
// preserves the sign of *every* barycentric determinant predicate in every
// adjacent cell — the sign-of-determinant (Simulation of Simplicity)
// criterion. Critical point existence is then invariant, but positions and
// eigenvectors drift within the bound, so separatrices are not preserved.
// The resulting bounds are tighter than Theorem 1's (all k instead of one
// eligible k), giving the characteristically higher PSNR and lower
// compression ratio of the cpSZ-sos rows in Tables IV-VII.

// VertexBoundSoS aggregates SoS bounds over all cells adjacent to vertex
// idx. Unlike VertexBound it never requests lossless storage: sign
// preservation applies uniformly to cells with and without critical points.
func VertexBoundSoS(f *field.Field, idx int, mode Mode) float64 {
	eb, _ := vertexBound(f, idx, mode, true)
	return eb
}

// SignPattern2D returns the sign of each barycentric determinant m_k of a
// triangle. The cpSZ-sos invariant is that this pattern survives
// compression; critical point existence follows, since a cell contains a
// critical point exactly when all m_k share a sign (M = Σm_k then shares
// it too).
func SignPattern2D(v [3][2]float64) [3]int {
	m, _ := critical.Barycentric2D(v)
	return [3]int{sgn(m[0]), sgn(m[1]), sgn(m[2])}
}

// SignPattern3D is the tetrahedral analogue of SignPattern2D.
func SignPattern3D(v [4][3]float64) [4]int {
	d, _ := critical.Barycentric3D(v)
	return [4]int{sgn(d[0]), sgn(d[1]), sgn(d[2]), sgn(d[3])}
}

func sgn(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
