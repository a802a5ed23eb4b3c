// Package grid provides the simplicial mesh substrate used throughout TspSZ:
// regular rectilinear grids of unit spacing whose cells are split into
// simplices (triangles in 2D, Freudenthal/Kuhn tetrahedra in 3D). It offers
// vertex/cell indexing, adjacency queries, and what point location needs
// from the mesh: the cell numbering (CellIndex), the corners of each cell
// of a square or cube (TriangleCorners, KuhnCorners) and the Kuhn
// tetrahedron holding a point of a cube (KuhnTet). field.Sampler locates
// points and interpolates.
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

// A corner slot names a corner of a unit square or cube: slot
// dx + 2·dy + 4·dz is the corner at offset (dx, dy, dz) from the lowest
// one. TriangleCorners[t] lists the slots of triangle t of a square and
// KuhnCorners[t] those of Kuhn tetrahedron t of a cube, in CellVertices
// order. The tables are shared; callers must not modify them.
var (
	TriangleCorners = [CellsPerSquare][3]int{{0, 1, 3}, {0, 3, 2}}
	KuhnCorners     = kuhnCorners()
)

func kuhnCorners() (c [CellsPerCube][4]int) {
	for t, p := range kuhnPerms {
		for r := 1; r < 4; r++ {
			c[t][r] = c[t][r-1] | 1<<p[r-1]
		}
	}
	return c
}

// KuhnTet returns the Kuhn tetrahedron t of a unit cube that holds the
// point at local coordinates (lx, ly, lz) ∈ [0,1]³, none of them NaN, and
// those coordinates in t's axis order kuhnPerms[t], which sorts them
// non-increasingly: s0 ≥ s1 ≥ s2. The point's barycentric coordinates in
// CellVertices order are (1−s0, s0−s1, s1−s2, s2). Ties keep the lower
// axis first, as a stable sort does, so a point on a face two tetrahedra
// share has one location.
func KuhnTet(lx, ly, lz float64) (t int, s0, s1, s2 float64) {
	if lx >= ly {
		if ly >= lz {
			return 0, lx, ly, lz // x ≥ y ≥ z
		}
		if lx >= lz {
			return 1, lx, lz, ly // x ≥ z > y
		}
		return 4, lz, lx, ly // z > x ≥ y
	}
	if lx >= lz {
		return 2, ly, lx, lz // y > x ≥ z
	}
	if ly >= lz {
		return 3, ly, lz, lx // y ≥ z > x
	}
	return 5, lz, ly, lx // z > y > x
}

// CellIndex returns the id of simplex t of the unit square or cube whose
// lowest corner is vertex (i, j, k), the numbering CellVertices decodes.
// In 2D pass k == 0.
func (g *Grid) CellIndex(i, j, k, t int) int {
	per := CellsPerCube
	if g.dim == 2 {
		per = CellsPerSquare
	}
	return (i+(g.dims[0]-1)*(j+(g.dims[1]-1)*k))*per + t
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
	if g.dim == 3 && (ck < 0 || ck >= nz-1) {
		return 0, false
	}
	return g.CellIndex(ci, cj, ck, s.t), true
}
