package field

import "tspsz/internal/grid"

// Sampler evaluates a field's piecewise-linear interpolant at a walk of
// nearby points, as a streamline's RK4 stages visit them. One call locates
// the point (domain test, cell clamp, Kuhn sort, barycentric weights) and
// sums float64 copies of the values at the corners of the point's square
// or cube, which the sampler keeps and reloads only when a point leaves
// that square or cube. Consecutive RK4 stages almost always stay in it.
//
// The result is bit-identical to locating the point from scratch and
// summing the float32 vertex values: a float32 converts to float64
// exactly, each sum starts at 0 and adds the products in CellVertices
// order, and grid.KuhnTet breaks ties as the axis sort before it did.
// Each product is rounded before it is added (the float64 conversion is
// Go's fusion barrier), so no platform fuses it into a multiply-add.
//
// A Sampler serves one serial walk, such as a streamline or one rendered
// image: it is not safe for concurrent use, and it must not be used across
// a write to its field, whose effect on the loaded corners it would not
// see. Make a new one instead.
type Sampler struct {
	f                *Field
	dim              int
	nx, ny, nz       int     // vertex counts per axis
	xmax, ymax, zmax float64 // the domain's far faces, float64(n-1)
	// i, j, k is the lowest corner of the loaded square or cube (-1 before
	// the first load), cube the id of its simplex 0.
	i, j, k, cube int
	// c holds (u, v, w) at each corner, by grid corner slot; w stays 0
	// when the field has no W, so the third sum is +0 as before.
	c [8][3]float64
}

// NewSampler returns a sampler over f with no corners loaded.
func NewSampler(f *Field) Sampler {
	nx, ny, nz := f.Grid.Dims()
	return Sampler{
		f: f, dim: f.Grid.Dim(), nx: nx, ny: ny, nz: nz,
		xmax: float64(nx - 1), ymax: float64(ny - 1), zmax: float64(nz - 1),
		i: -1, j: -1, k: -1,
	}
}

// Sample evaluates the piecewise-linear interpolant at point (x, y, z), as
// Field.Sample does: it returns the interpolated vector (u, v, w), the cell
// used, and ok == false when the point is outside the domain or has a NaN
// coordinate (2D grids ignore z). w is 0 for a field without W. The point
// and the vector pass as scalars because Go's register ABI passes no array
// of more than one element in registers: a [3]float64 would go through the
// stack on every call of the tracer's hot loop.
func (s *Sampler) Sample(x, y, z float64) (u, v, w float64, cell int, ok bool) {
	// Written as "inside" tests so that a NaN, which fails every
	// comparison, is outside.
	if !(x >= 0 && y >= 0 && x <= s.xmax && y <= s.ymax) {
		return 0, 0, 0, 0, false
	}
	// The far face maps into the last cell; x >= 0, so int(x) >= 0.
	ci := min(int(x), s.nx-2)
	cj := min(int(y), s.ny-2)
	lx := x - float64(ci)
	ly := y - float64(cj)
	if s.dim == 2 {
		if ci != s.i || cj != s.j {
			s.load(ci, cj, 0)
		}
		// Lower triangle (v00, v10, v11) where lx >= ly, else upper
		// (v00, v11, v01).
		t, w0, w1, w2 := 0, 1-lx, lx-ly, ly
		if !(lx >= ly) {
			t, w0, w1, w2 = 1, 1-ly, lx, ly-lx
		}
		k := &grid.TriangleCorners[t]
		a, b, c := &s.c[0], &s.c[k[1]&7], &s.c[k[2]&7]
		u = 0 + float64(w0*a[0]) + float64(w1*b[0]) + float64(w2*c[0])
		v = 0 + float64(w0*a[1]) + float64(w1*b[1]) + float64(w2*c[1])
		w = 0 + float64(w0*a[2]) + float64(w1*b[2]) + float64(w2*c[2])
		return u, v, w, s.cube + t, true
	}
	if !(z >= 0 && z <= s.zmax) {
		return 0, 0, 0, 0, false
	}
	ck := min(int(z), s.nz-2)
	lz := z - float64(ck)
	if ci != s.i || cj != s.j || ck != s.k {
		s.load(ci, cj, ck)
	}
	t, s0, s1, s2 := grid.KuhnTet(lx, ly, lz)
	w0, w1, w2, w3 := 1-s0, s0-s1, s1-s2, s2
	k := &grid.KuhnCorners[t]
	a, b, c, d := &s.c[0], &s.c[k[1]&7], &s.c[k[2]&7], &s.c[7]
	u = 0 + float64(w0*a[0]) + float64(w1*b[0]) + float64(w2*c[0]) + float64(w3*d[0])
	v = 0 + float64(w0*a[1]) + float64(w1*b[1]) + float64(w2*c[1]) + float64(w3*d[1])
	w = 0 + float64(w0*a[2]) + float64(w1*b[2]) + float64(w2*c[2]) + float64(w3*d[2])
	return u, v, w, s.cube + t, true
}

// load copies the corner values of the square or cube whose lowest corner
// is vertex (i, j, k).
func (s *Sampler) load(i, j, k int) {
	s.i, s.j, s.k = i, j, k
	g := s.f.Grid
	s.cube = g.CellIndex(i, j, k, 0)
	n := 8
	if s.dim == 2 {
		n = 4
	}
	for slot := 0; slot < n; slot++ {
		v := g.VertexIndex(i+slot&1, j+slot>>1&1, k+slot>>2)
		c := &s.c[slot]
		c[0], c[1] = float64(s.f.U[v]), float64(s.f.V[v])
		if s.f.W != nil {
			c[2] = float64(s.f.W[v])
		}
	}
}
