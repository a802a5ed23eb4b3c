// Package grid provides the simplicial mesh substrate used throughout TspSZ:
// regular rectilinear grids of unit spacing whose cells are split into
// simplices (triangles in 2D, Freudenthal/Kuhn tetrahedra in 3D). It offers
// vertex/cell indexing, adjacency queries, and point location with
// barycentric coordinates for piecewise-linear interpolation.
package grid

import "fmt"

// Grid is a regular rectilinear grid with unit spacing. Vertices sit on the
// integer lattice [0,nx)×[0,ny)(×[0,nz)). The grid is triangulated into
// simplices: 2 triangles per unit square in 2D, 6 tetrahedra per unit cube in
// 3D (Kuhn subdivision). The zero value is not usable; construct with New2D
// or New3D.
type Grid struct {
	dims [3]int // nx, ny, nz (nz == 1 for 2D)
	dim  int    // 2 or 3
}

// New2D returns a 2D grid with nx×ny vertices. It panics if either dimension
// is smaller than 2, since at least one cell is required.
func New2D(nx, ny int) *Grid {
	if nx < 2 || ny < 2 {
		panic(fmt.Sprintf("grid: 2D dimensions must be >= 2, got %d x %d", nx, ny))
	}
	return &Grid{dims: [3]int{nx, ny, 1}, dim: 2}
}

// New3D returns a 3D grid with nx×ny×nz vertices. It panics if any dimension
// is smaller than 2.
func New3D(nx, ny, nz int) *Grid {
	if nx < 2 || ny < 2 || nz < 2 {
		panic(fmt.Sprintf("grid: 3D dimensions must be >= 2, got %d x %d x %d", nx, ny, nz))
	}
	return &Grid{dims: [3]int{nx, ny, nz}, dim: 3}
}

// Dim reports the spatial dimension (2 or 3).
func (g *Grid) Dim() int { return g.dim }

// Dims returns the vertex counts along each axis. For 2D grids the third
// entry is 1.
func (g *Grid) Dims() (nx, ny, nz int) { return g.dims[0], g.dims[1], g.dims[2] }

// NumVertices reports the total number of vertices.
func (g *Grid) NumVertices() int { return g.dims[0] * g.dims[1] * g.dims[2] }

// CellsPerSquare is the number of simplices in one 2D unit square.
const CellsPerSquare = 2

// CellsPerCube is the number of simplices in one 3D unit cube.
const CellsPerCube = 6

// NumCells reports the total number of simplices.
func (g *Grid) NumCells() int {
	nx, ny, nz := g.dims[0], g.dims[1], g.dims[2]
	if g.dim == 2 {
		return (nx - 1) * (ny - 1) * CellsPerSquare
	}
	return (nx - 1) * (ny - 1) * (nz - 1) * CellsPerCube
}

// VertexIndex converts lattice coordinates to a linear vertex index.
// In 2D pass k == 0.
func (g *Grid) VertexIndex(i, j, k int) int {
	return i + g.dims[0]*(j+g.dims[1]*k)
}

// VertexCoords converts a linear vertex index back to lattice coordinates.
func (g *Grid) VertexCoords(idx int) (i, j, k int) {
	nx, ny := g.dims[0], g.dims[1]
	i = idx % nx
	j = (idx / nx) % ny
	k = idx / (nx * ny)
	return
}

// VertexPosition returns the spatial position of a vertex (unit spacing).
func (g *Grid) VertexPosition(idx int) [3]float64 {
	i, j, k := g.VertexCoords(idx)
	return [3]float64{float64(i), float64(j), float64(k)}
}

// kuhnPerms lists the 6 axis orderings of the Kuhn subdivision of a cube.
// Tetrahedron t of a cube at base b has vertices
//
//	b, b+e[p0], b+e[p0]+e[p1], b+e[p0]+e[p1]+e[p2]
//
// for permutation p = kuhnPerms[t].
var kuhnPerms = [6][3]int{
	{0, 1, 2}, {0, 2, 1},
	{1, 0, 2}, {1, 2, 0},
	{2, 0, 1}, {2, 1, 0},
}

// CellVertices appends the vertex indices of cell c to dst and returns the
// extended slice. Triangles have 3 vertices, tetrahedra 4. Vertex order is
// deterministic.
func (g *Grid) CellVertices(c int, dst []int) []int {
	nx, ny := g.dims[0], g.dims[1]
	if g.dim == 2 {
		t := c % CellsPerSquare
		sq := c / CellsPerSquare
		i := sq % (nx - 1)
		j := sq / (nx - 1)
		v00 := g.VertexIndex(i, j, 0)
		v10 := g.VertexIndex(i+1, j, 0)
		v11 := g.VertexIndex(i+1, j+1, 0)
		v01 := g.VertexIndex(i, j+1, 0)
		if t == 0 { // lower triangle: covers local x >= y
			return append(dst, v00, v10, v11)
		}
		return append(dst, v00, v11, v01)
	}
	t := c % CellsPerCube
	cube := c / CellsPerCube
	cx := cube % (nx - 1)
	cy := (cube / (nx - 1)) % (ny - 1)
	cz := cube / ((nx - 1) * (ny - 1))
	p := kuhnPerms[t]
	var off [3]int
	dst = append(dst, g.VertexIndex(cx, cy, cz))
	for s := 0; s < 3; s++ {
		off[p[s]] = 1
		dst = append(dst, g.VertexIndex(cx+off[0], cy+off[1], cz+off[2]))
	}
	return dst
}

// CellVerticesPositions appends the spatial positions of cell c's vertices
// to dst, in the same order as CellVertices.
func (g *Grid) CellVerticesPositions(c int, dst [][3]float64) [][3]float64 {
	var buf [4]int
	vs := g.CellVertices(c, buf[:0])
	for _, v := range vs {
		dst = append(dst, g.VertexPosition(v))
	}
	return dst
}

// StarCell is one cell of a vertex star in lattice-offset form. The cells
// incident to a vertex are the same for every vertex up to translation, so
// the star is a static table.
type StarCell struct {
	// Off holds the lattice offsets of the cell's vertices from the star's
	// centre, in CellVertices order; Off[0] is the corner of the cell's
	// unit square or cube. 2D cells use the first three rows, with z = 0.
	Off [4][3]int
	// Cur is the row of Off that holds the centre (the zero offset).
	Cur int
	t   int // the cell's index within its square or cube
}

// The stars of the centre vertex of a grid with three vertices per axis:
// 6 triangles in 2D and 24 Kuhn tetrahedra in 3D.
var (
	star2D = buildStar(New2D(3, 3), 1, 1, 0)
	star3D = buildStar(New3D(3, 3, 3), 1, 1, 1)
)

func buildStar(g *Grid, ci, cj, ck int) []StarCell {
	centre := g.VertexIndex(ci, cj, ck)
	per := CellsPerCube
	if g.dim == 2 {
		per = CellsPerSquare
	}
	var star []StarCell
	var buf [4]int
	for c := 0; c < g.NumCells(); c++ {
		s := StarCell{Cur: -1, t: c % per}
		for r, v := range g.CellVertices(c, buf[:0]) {
			i, j, k := g.VertexCoords(v)
			s.Off[r] = [3]int{i - ci, j - cj, k - ck}
			if v == centre {
				s.Cur = r
			}
		}
		if s.Cur >= 0 {
			star = append(star, s)
		}
	}
	return star
}

// Star returns the cells incident to an interior vertex of g, as lattice
// offsets: 6 triangles in 2D, 24 tetrahedra in 3D. A boundary vertex keeps
// the ones StarCellAt accepts. The table is shared; callers must not
// modify it.
func (g *Grid) Star() []StarCell {
	if g.dim == 2 {
		return star2D
	}
	return star3D
}

// StarCellAt places star cell s at the vertex with lattice coordinates
// (i, j, k). It returns the cell's index and true when the cell lies
// inside g, and false when it sticks out of the grid.
func (g *Grid) StarCellAt(s *StarCell, i, j, k int) (c int, ok bool) {
	nx, ny, nz := g.dims[0], g.dims[1], g.dims[2]
	ci, cj, ck := i+s.Off[0][0], j+s.Off[0][1], k+s.Off[0][2]
	if ci < 0 || cj < 0 || ci >= nx-1 || cj >= ny-1 {
		return 0, false
	}
	if g.dim == 2 {
		return (ci+cj*(nx-1))*CellsPerSquare + s.t, true
	}
	if ck < 0 || ck >= nz-1 {
		return 0, false
	}
	return (ci+(nx-1)*(cj+(ny-1)*ck))*CellsPerCube + s.t, true
}

// Locate finds the simplex containing point p and its barycentric
// coordinates. It returns ok == false when p lies outside the grid domain
// [0,nx-1]×[0,ny-1](×[0,nz-1]) or has a NaN coordinate (2D grids ignore
// p[2]). The barycentric coordinates bc correspond one-to-one with
// CellVertices order and satisfy bc[i] >= 0, Σ bc[i] == 1 (up to
// rounding).
func (g *Grid) Locate(p [3]float64) (cell int, bc [4]float64, ok bool) {
	nx, ny, nz := g.dims[0], g.dims[1], g.dims[2]
	x, y, z := p[0], p[1], p[2]
	// Written as "inside" tests so that a NaN, which fails every
	// comparison, is outside.
	if !(x >= 0 && y >= 0 && x <= float64(nx-1) && y <= float64(ny-1)) {
		return 0, bc, false
	}
	if g.dim == 3 && !(z >= 0 && z <= float64(nz-1)) {
		return 0, bc, false
	}
	ci := clampCell(x, nx-1)
	cj := clampCell(y, ny-1)
	lx := x - float64(ci)
	ly := y - float64(cj)
	if g.dim == 2 {
		sq := ci + cj*(nx-1)
		if lx >= ly { // lower triangle (v00, v10, v11)
			bc[0] = 1 - lx
			bc[1] = lx - ly
			bc[2] = ly
			return sq * CellsPerSquare, bc, true
		}
		// upper triangle (v00, v11, v01)
		bc[0] = 1 - ly
		bc[1] = lx
		bc[2] = ly - lx
		return sq*CellsPerSquare + 1, bc, true
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
	return cube*CellsPerCube + t, bc, true
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
	panic("grid: invalid permutation")
}
