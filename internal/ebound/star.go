package ebound

import (
	"fmt"
	"math"

	"tspsz/internal/field"
	"tspsz/internal/grid"
)

// The star tables let vertexBound evaluate every determinant of a vertex
// star once, for all the cells that share it (DESIGN.md §3, step 4).
//
// In 3D a numerator is ± the determinant of a tetrahedron face, the matrix
// with the face's three vertex vectors as columns in the cell's vertex
// order, expanded along row 0 over 2×2 minors of rows 1 and 2:
// det(a, b, c) = a₀·m(b,c) − b₀·m(a,c) + c₀·m(a,b), m(X,Y) = X₁Y₂ − Y₁X₂.
// Kuhn tetrahedra list their vertices in chain order, by coordinate sum,
// so an edge or a face has the same vertex order, and so the same float
// expression, in every tetrahedron that holds it. The 24 tetrahedra share
// 50 edges and 60 faces; the 14 edges and 36 faces through the centre are
// evaluated again for each perturbed component. In 2D a numerator is the
// Det2 of an ordered vertex pair, m(X,Y) = X₀Y₁ − Y₀X₁; adjacent triangles
// run a shared edge in opposite directions, so each order is its own
// entry.

// Capacities of the per-vertex scratch, set by the 3D star: 15 vertices
// plus the centre raised along each of the 3 components; 50 minors plus
// 14 centre-edge minors per component; 60 faces plus 36 centre faces per
// component; 24 cells. The numerators' determinants get a whole uint8
// range, so the cells read them with no bounds check. newStar checks that
// a star fits.
const (
	maxValues = 15 + 3
	maxMinors = 50 + 14*3
	maxDets   = 256
	maxCells  = 24
)

// star is the vertex star of one dimension arranged for vertexBound.
// Value slot v < len(verts) holds star vertex v (slot 0 is the centre);
// slot perturbed+i holds the centre with component i raised by one. The
// unperturbed minors and faces come first, minors[:minors0] and
// faces[:faces0], so the critical-point check needs only those.
type star struct {
	dim       int              // components per vertex; a cell has dim+1 vertices
	cells     []grid.StarCell  // grid.Star(), in its order
	verts     []starVertex     // the star's vertices; verts[0] is the centre
	perturbed int              // value slot of the centre raised along component 0
	minors    []minorRef       // 2×2 minors (2D: the numerators themselves)
	minors0   int              // count of unperturbed minors
	faces     []faceRef        // 3D face determinants; empty in 2D
	faces0    int              // count of unperturbed faces
	numer     []cellNumerators // per cell, where its numerators sit
}

// starVertex is one vertex of a star: its lattice offset from the centre
// and the star cells that hold it (bit c for cell c).
type starVertex struct {
	off   [3]int
	cells uint32
}

// minorRef is the minor m(x, y) of value slots x and y: over components
// 1 and 2 in 3D, 0 and 1 in 2D. cells marks the star cells that read it.
type minorRef struct {
	x, y  uint8
	cells uint32
}

// faceRef is det(a, b, c) of value slots a, b and c, read from the minors
// bc = m(b, c), ac = m(a, c) and ab = m(a, b).
type faceRef struct {
	a, b, c    uint8
	bc, ac, ab uint8
	cells      uint32
}

// cellNumerators places one star cell's numerators among the determinants
// (the minors in 2D, the faces in 3D): numerator k is det[src[k]], negated
// where neg[k] is the sign bit, and with component i of the centre raised
// by one it is det[psrc[i][k]], negated alike. Numerator cur, which does
// not read the centre, keeps src[cur] in psrc.
type cellNumerators struct {
	src  [4]uint8
	psrc [3][4]uint8
	neg  [4]uint64
}

// starValues is one vertex's star as vertexBound evaluates it, indexed as
// in the star's tables; it lives on the stack.
type starValues struct {
	val      [maxValues][3]float64
	minor    [maxMinors]float64 // 3D minors
	det      [maxDets]float64   // the numerators' determinants: 2D minors, 3D faces
	eligible [maxCells]uint8    // bit k: μ_k outside [0, 1], or M = 0
	present  uint32             // bit c: star cell c lies inside the grid
}

var (
	star2D = newStar(grid.New2D(3, 3))
	star3D = newStar(grid.New3D(3, 3, 3))
)

// newStar builds the tables for the star of g's dimension from g.Star().
func newStar(g *grid.Grid) star {
	t := star{dim: g.Dim(), cells: g.Star()}
	nv := t.dim + 1
	vertex := map[[3]int]int{{}: 0}
	t.verts = []starVertex{{}}
	slots := make([][4]int, len(t.cells)) // value slot of each cell row
	for c := range t.cells {
		sc := &t.cells[c]
		for r := 0; r < nv; r++ {
			v, ok := vertex[sc.Off[r]]
			if !ok {
				v = len(t.verts)
				vertex[sc.Off[r]] = v
				t.verts = append(t.verts, starVertex{off: sc.Off[r]})
			}
			t.verts[v].cells |= 1 << c
			slots[c][r] = v
		}
	}
	t.perturbed = len(t.verts)

	minorID := map[[2]int]int{}
	minor := func(x, y, cell int) uint8 {
		id, ok := minorID[[2]int{x, y}]
		if !ok {
			id = len(t.minors)
			minorID[[2]int{x, y}] = id
			t.minors = append(t.minors, minorRef{x: uint8(x), y: uint8(y)})
		}
		t.minors[id].cells |= 1 << cell
		return uint8(id)
	}
	faceID := map[[3]int]int{}
	face := func(a, b, c, cell int) uint8 {
		id, ok := faceID[[3]int{a, b, c}]
		if !ok {
			id = len(t.faces)
			faceID[[3]int{a, b, c}] = id
			t.faces = append(t.faces, faceRef{a: uint8(a), b: uint8(b), c: uint8(c)})
		}
		fr := &t.faces[id]
		fr.bc, fr.ac, fr.ab = minor(b, c, cell), minor(a, c, cell), minor(a, b, cell)
		fr.cells |= 1 << cell
		return uint8(id)
	}
	// numerator returns the determinant of numerator k of cell c, whose
	// rows sit in value slots rows: in 2D the pair (k+1, k+2) mod 3, as
	// critical.Barycentric2D orders it; in 3D the face without row k.
	numerator := func(c, k int, rows [4]int) uint8 {
		if t.dim == 2 {
			return minor(rows[(k+1)%3], rows[(k+2)%3], c)
		}
		var f [3]int
		n := 0
		for r := 0; r < 4; r++ {
			if r != k {
				f[n] = rows[r]
				n++
			}
		}
		return face(f[0], f[1], f[2], c)
	}

	t.numer = make([]cellNumerators, len(t.cells))
	for c := range t.cells {
		cn := &t.numer[c]
		for k := 0; k < nv; k++ {
			cn.src[k] = numerator(c, k, slots[c])
			// critical.Barycentric3D negates d_0 and d_2.
			if t.dim == 3 && k%2 == 0 {
				cn.neg[k] = 1 << 63
			}
		}
	}
	t.minors0, t.faces0 = len(t.minors), len(t.faces)
	for i := 0; i < t.dim; i++ {
		for c := range t.cells {
			cur := t.cells[c].Cur
			rows := slots[c]
			rows[cur] = t.perturbed + i
			cn := &t.numer[c]
			for k := 0; k < nv; k++ {
				if k == cur {
					cn.psrc[i][k] = cn.src[k]
				} else {
					cn.psrc[i][k] = numerator(c, k, rows)
				}
			}
		}
	}

	if t.perturbed+t.dim > maxValues || len(t.minors) > maxMinors || len(t.faces) > maxDets || len(t.cells) > maxCells {
		panic(fmt.Sprintf("ebound: %dD star of %d values, %d minors, %d faces and %d cells exceeds the scratch",
			t.dim, t.perturbed+t.dim, len(t.minors), len(t.faces), len(t.cells)))
	}
	return t
}

// evalMinors evaluates minors[from:to] that a present cell reads. It and
// evalFaces index their tables in place: ranging over the entries by
// value copied each one to the stack and read it back, which took twice
// as long per vertex on some fields (BenchmarkVertexBound3DAbs).
func (t *star) evalMinors(s *starValues, from, to int) {
	minors := t.minors[from:to]
	if t.dim == 2 {
		out := s.det[from:to]
		out = out[:len(minors)]
		for n := range minors {
			if mr := &minors[n]; mr.cells&s.present != 0 {
				x, y := &s.val[mr.x], &s.val[mr.y]
				out[n] = float64(x[0]*y[1]) - float64(y[0]*x[1])
			}
		}
		return
	}
	out := s.minor[from:to]
	out = out[:len(minors)]
	for n := range minors {
		if mr := &minors[n]; mr.cells&s.present != 0 {
			x, y := &s.val[mr.x], &s.val[mr.y]
			out[n] = float64(x[1]*y[2]) - float64(y[1]*x[2])
		}
	}
}

// evalFaces evaluates faces[from:to] that a present cell reads, from
// minors already evaluated.
func (t *star) evalFaces(s *starValues, from, to int) {
	faces, out := t.faces[from:to], s.det[from:to]
	out = out[:len(faces)]
	for n := range faces {
		if fr := &faces[n]; fr.cells&s.present != 0 {
			out[n] = float64(s.val[fr.a][0]*s.minor[fr.bc]) - float64(s.val[fr.b][0]*s.minor[fr.ac]) +
				float64(s.val[fr.c][0]*s.minor[fr.ab])
		}
	}
}

// load marks the star cells of vertex idx that lie inside the grid
// (StarCellAt, the one boundary rule) and reads the vertices they hold
// into their value slots.
func (s *starValues) load(t *star, f *field.Field, idx int) {
	g := f.Grid
	i, j, k := g.VertexCoords(idx)
	for c := range t.cells {
		if _, ok := g.StarCellAt(&t.cells[c], i, j, k); ok {
			s.present |= 1 << c
		}
	}
	for v := range t.verts {
		sv := &t.verts[v]
		if sv.cells&s.present == 0 {
			continue
		}
		vi := idx + g.VertexIndex(sv.off[0], sv.off[1], sv.off[2])
		s.val[v][0] = float64(f.U[vi])
		s.val[v][1] = float64(f.V[vi])
		if t.dim == 3 {
			s.val[v][2] = float64(f.W[vi])
		}
	}
}

// numerators fills the value slots of the raised centre and evaluates
// the unperturbed minors and faces.
func (s *starValues) numerators(t *star) {
	x := &s.val[0]
	for i := 0; i < t.dim; i++ {
		p := &s.val[t.perturbed+i]
		for j := 0; j < t.dim; j++ {
			p[j] = x[j] + unit[i][j]
		}
	}
	t.evalMinors(s, 0, t.minors0)
	t.evalFaces(s, 0, t.faces0)
}

// perturb evaluates the minors and faces through the centre with each of
// its components raised by one.
func (s *starValues) perturb(t *star) {
	t.evalMinors(s, t.minors0, len(t.minors))
	t.evalFaces(s, t.faces0, len(t.faces))
}

// gather reads a cell's numerators from the determinants at src, negated
// by neg, into d and returns their sum M, as critical.Barycentric2D and
// Barycentric3D compute them.
func (s *starValues) gather(dim int, src *[4]uint8, neg *[4]uint64, d *[4]float64) float64 {
	d[0] = negate(s.det[src[0]], neg[0])
	d[1] = negate(s.det[src[1]], neg[1])
	d[2] = negate(s.det[src[2]], neg[2])
	m := d[0] + d[1] + d[2]
	if dim == 3 {
		d[3] = negate(s.det[src[3]], neg[3])
		m += d[3]
	}
	return m
}

// classify reports whether present cell c holds a critical point: M ≠ 0
// and every μ_k = d_k/M in [0, 1]. Otherwise it records which k are
// eligible for the coupled bound: those with μ_k outside [0, 1], or every
// k when M = 0. A NaN μ_k is neither outside [0, 1] for the first test (a
// NaN cell counts as holding a critical point, and its vertex is stored
// losslessly) nor inside it for the second.
func (s *starValues) classify(t *star, c int) bool {
	var d [4]float64
	cn := &t.numer[c]
	m := s.gather(t.dim, &cn.src, &cn.neg, &d)
	nv := t.dim + 1
	//lint:allow floatcmp exact-zero degeneracy guard before dividing by M: a degenerate cell holds no critical point and every k is eligible
	if m == 0 {
		s.eligible[c] = 1<<nv - 1
		return false
	}
	var outside, eligible uint8
	for k := 0; k < nv; k++ {
		mu := d[k] / m
		out := bit(mu < 0) | bit(mu > 1)
		outside |= out
		eligible |= (out | bit(math.IsNaN(mu))) << k
	}
	s.eligible[c] = eligible
	return outside == 0
}

// bit converts b to 1 or 0, without a branch.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// linearize fills l with cell c's linearization from the evaluated
// determinants.
func (s *starValues) linearize(t *star, c int, l *linearization) {
	cn := &t.numer[c]
	l.n = t.dim
	l.m = s.gather(t.dim, &cn.src, &cn.neg, &l.d)
	for i := 0; i < t.dim; i++ {
		l.pm[i] = s.gather(t.dim, &cn.psrc[i], &cn.neg, &l.p[i])
	}
}

// negate flips the sign bit of x where sign is 1<<63, exactly as −x does,
// and returns x where it is 0.
func negate(x float64, sign uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ sign)
}
