// Package fieldtest holds the test-only references for point location and
// sampling: grid.Locate and field.Sample as they were before field.Sampler
// fused them into one pass over a cached cell, so that tests can hold the
// sampler, and the tracer built on it, to them bit for bit. The code is
// the old code, except that each product is rounded before it is added,
// as amd64 always computed it. Only tests import this package; it is not
// a test file because the tests of more than one package use it.
package fieldtest

import (
	"tspsz/internal/field"
	"tspsz/internal/grid"
)

// RefLocate finds the simplex containing point p and its barycentric
// coordinates. It returns ok == false when p lies outside the grid domain
// [0,nx-1]×[0,ny-1](×[0,nz-1]) or has a NaN coordinate (2D grids ignore
// p[2]). The barycentric coordinates bc correspond one-to-one with
// CellVertices order and satisfy bc[i] >= 0, Σ bc[i] == 1 (up to
// rounding).
func RefLocate(g *grid.Grid, p [3]float64) (cell int, bc [4]float64, ok bool) {
	nx, ny, nz := g.Dims()
	x, y, z := p[0], p[1], p[2]
	// Written as "inside" tests so that a NaN, which fails every
	// comparison, is outside.
	if !(x >= 0 && y >= 0 && x <= float64(nx-1) && y <= float64(ny-1)) {
		return 0, bc, false
	}
	if g.Dim() == 3 && !(z >= 0 && z <= float64(nz-1)) {
		return 0, bc, false
	}
	ci := clampCell(x, nx-1)
	cj := clampCell(y, ny-1)
	lx := x - float64(ci)
	ly := y - float64(cj)
	if g.Dim() == 2 {
		sq := ci + cj*(nx-1)
		if lx >= ly { // lower triangle (v00, v10, v11)
			bc[0] = 1 - lx
			bc[1] = lx - ly
			bc[2] = ly
			return sq * grid.CellsPerSquare, bc, true
		}
		// upper triangle (v00, v11, v01)
		bc[0] = 1 - ly
		bc[1] = lx
		bc[2] = ly - lx
		return sq*grid.CellsPerSquare + 1, bc, true
	}
	ck := clampCell(z, nz-1)
	lz := z - float64(ck)
	l := [3]float64{lx, ly, lz}
	// Pick the Kuhn tetrahedron whose axis permutation sorts the local
	// coordinates in non-increasing order.
	perm := sortedAxes(l)
	t := permIndex(perm)
	cube := ci + (nx-1)*(cj+(ny-1)*ck)
	s0, s1, s2 := l[perm[0]], l[perm[1]], l[perm[2]]
	bc[0] = 1 - s0
	bc[1] = s0 - s1
	bc[2] = s1 - s2
	bc[3] = s2
	return cube*grid.CellsPerCube + t, bc, true
}

// RefSample evaluates the piecewise-linear interpolant at point p. It
// returns the interpolated vector, the cell used, and ok == false when p is
// outside the domain or has a NaN coordinate. Each product is rounded
// before it is added (the float64 conversion is Go's fusion barrier), as
// amd64 always computes it.
func RefSample(f *field.Field, p [3]float64) (vec [3]float64, cell int, ok bool) {
	cell, bc, ok := RefLocate(f.Grid, p)
	if !ok {
		return vec, 0, false
	}
	var vbuf [4]int
	vs := f.Grid.CellVertices(cell, vbuf[:0])
	for i, v := range vs {
		w := bc[i]
		vec[0] += float64(w * float64(f.U[v]))
		vec[1] += float64(w * float64(f.V[v]))
		if f.W != nil {
			vec[2] += float64(w * float64(f.W[v]))
		}
	}
	return vec, cell, true
}

// clampCell converts a continuous coordinate to a cell index in [0, n-1],
// mapping the right boundary into the last cell.
func clampCell(x float64, ncells int) int {
	c := int(x)
	if c >= ncells {
		c = ncells - 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// kuhnPerms lists the axis orderings of the Kuhn tetrahedra of a cube in
// grid's numbering: tetrahedron t has vertices b, b+e[p0], b+e[p0]+e[p1]
// and b+e[p0]+e[p1]+e[p2] for p = kuhnPerms[t].
var kuhnPerms = [6][3]int{
	{0, 1, 2}, {0, 2, 1},
	{1, 0, 2}, {1, 2, 0},
	{2, 0, 1}, {2, 1, 0},
}

// sortedAxes returns the axis permutation ordering l non-increasingly,
// breaking ties by axis index so location is deterministic.
func sortedAxes(l [3]float64) [3]int {
	p := [3]int{0, 1, 2}
	if l[p[0]] < l[p[1]] {
		p[0], p[1] = p[1], p[0]
	}
	if l[p[1]] < l[p[2]] {
		p[1], p[2] = p[2], p[1]
	}
	if l[p[0]] < l[p[1]] {
		p[0], p[1] = p[1], p[0]
	}
	return p
}

// permIndex maps an axis permutation to its kuhnPerms slot.
func permIndex(p [3]int) int {
	for i, kp := range kuhnPerms {
		if kp == p {
			return i
		}
	}
	panic("fieldtest: invalid permutation")
}
