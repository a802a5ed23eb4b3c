package grid

import (
	"math/rand"
	"slices"
	"testing"
)

func TestNew2DPanicsOnTinyDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 1xN grid")
		}
	}()
	New2D(1, 5)
}

func TestNew3DPanicsOnTinyDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NxNx1 grid")
		}
	}()
	New3D(4, 4, 1)
}

func TestVertexIndexRoundTrip2D(t *testing.T) {
	g := New2D(7, 5)
	for j := 0; j < 5; j++ {
		for i := 0; i < 7; i++ {
			idx := g.VertexIndex(i, j, 0)
			ri, rj, rk := g.VertexCoords(idx)
			if ri != i || rj != j || rk != 0 {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d,%d)", i, j, idx, ri, rj, rk)
			}
		}
	}
}

func TestVertexIndexRoundTrip3D(t *testing.T) {
	g := New3D(4, 5, 6)
	for k := 0; k < 6; k++ {
		for j := 0; j < 5; j++ {
			for i := 0; i < 4; i++ {
				idx := g.VertexIndex(i, j, k)
				ri, rj, rk := g.VertexCoords(idx)
				if ri != i || rj != j || rk != k {
					t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)", i, j, k, idx, ri, rj, rk)
				}
			}
		}
	}
}

func TestCounts(t *testing.T) {
	g2 := New2D(10, 8)
	if got, want := g2.NumVertices(), 80; got != want {
		t.Errorf("2D NumVertices = %d, want %d", got, want)
	}
	if got, want := g2.NumCells(), 9*7*2; got != want {
		t.Errorf("2D NumCells = %d, want %d", got, want)
	}
	g3 := New3D(4, 5, 6)
	if got, want := g3.NumVertices(), 120; got != want {
		t.Errorf("3D NumVertices = %d, want %d", got, want)
	}
	if got, want := g3.NumCells(), 3*4*5*6; got != want {
		t.Errorf("3D NumCells = %d, want %d", got, want)
	}
}

func TestCellVerticesDistinctAndInRange(t *testing.T) {
	for _, g := range []*Grid{New2D(5, 4), New3D(3, 4, 5)} {
		nv := g.NumVertices()
		want := g.Dim() + 1
		for c := 0; c < g.NumCells(); c++ {
			vs := g.CellVertices(c, nil)
			if len(vs) != want {
				t.Fatalf("dim %d cell %d: %d vertices, want %d", g.Dim(), c, len(vs), want)
			}
			seen := map[int]bool{}
			for _, v := range vs {
				if v < 0 || v >= nv {
					t.Fatalf("dim %d cell %d: vertex %d out of range", g.Dim(), c, v)
				}
				if seen[v] {
					t.Fatalf("dim %d cell %d: duplicate vertex %d", g.Dim(), c, v)
				}
				seen[v] = true
			}
		}
	}
}

// starCells lists the cells of vertex v's star that lie inside g, checking
// that each one's vertices, in CellVertices order, are v plus the star
// cell's offsets with v at row Cur.
func starCells(t *testing.T, g *Grid, v int) []int {
	t.Helper()
	i, j, k := g.VertexCoords(v)
	var cells []int
	for s := range g.Star() {
		sc := &g.Star()[s]
		c, ok := g.StarCellAt(sc, i, j, k)
		if !ok {
			continue
		}
		vs := g.CellVertices(c, nil)
		for r, cv := range vs {
			o := sc.Off[r]
			if want := g.VertexIndex(i+o[0], j+o[1], k+o[2]); cv != want {
				t.Fatalf("dim %d vertex %d: star cell %d (cell %d) row %d is vertex %d, want %d",
					g.Dim(), v, s, c, r, cv, want)
			}
		}
		if vs[sc.Cur] != v {
			t.Fatalf("dim %d vertex %d: star cell %d has vertex %d at Cur", g.Dim(), v, s, vs[sc.Cur])
		}
		cells = append(cells, c)
	}
	return cells
}

// The star table placed at a vertex must yield exactly the cells that
// contain it, each once, with CellVertices' vertex order: checked for every
// vertex, boundary or not, of small grids.
func TestVertexCellsConsistency(t *testing.T) {
	for _, g := range []*Grid{New2D(2, 2), New2D(2, 5), New2D(5, 4), New3D(2, 2, 2), New3D(3, 4, 4), New3D(4, 2, 3)} {
		want := make([][]int, g.NumVertices())
		for c := 0; c < g.NumCells(); c++ {
			for _, v := range g.CellVertices(c, nil) {
				want[v] = append(want[v], c)
			}
		}
		for v := range want {
			got := starCells(t, g, v)
			seen := map[int]bool{}
			for _, c := range got {
				if seen[c] {
					t.Fatalf("dim %d vertex %d: cell %d twice in the star", g.Dim(), v, c)
				}
				seen[c] = true
			}
			if len(got) != len(want[v]) {
				t.Fatalf("dim %d vertex %d: star has %d cells %v, want %v", g.Dim(), v, len(got), got, want[v])
			}
		}
	}
}

func TestVertexCellsInteriorCounts(t *testing.T) {
	g2 := New2D(5, 5)
	if got := len(g2.Star()); got != 6 {
		t.Errorf("2D star table has %d cells, want 6", got)
	}
	if got := len(starCells(t, g2, g2.VertexIndex(2, 2, 0))); got != 6 {
		t.Errorf("2D interior vertex touches %d cells, want 6", got)
	}
	g3 := New3D(5, 5, 5)
	if got := len(g3.Star()); got != 24 {
		t.Errorf("3D star table has %d cells, want 24", got)
	}
	if got := len(starCells(t, g3, g3.VertexIndex(2, 2, 2))); got != 24 {
		t.Errorf("3D interior vertex touches %d cells, want 24", got)
	}
}

// Kuhn subdivision of a cube must partition it: the 6 tets cover all 8 cube
// corners and each tet contains the main diagonal endpoints.
func TestKuhnTetsShareDiagonal(t *testing.T) {
	g := New3D(2, 2, 2)
	base := g.VertexIndex(0, 0, 0)
	far := g.VertexIndex(1, 1, 1)
	for c := 0; c < g.NumCells(); c++ {
		vs := g.CellVertices(c, nil)
		hasBase, hasFar := false, false
		for _, v := range vs {
			if v == base {
				hasBase = true
			}
			if v == far {
				hasFar = true
			}
		}
		if !hasBase || !hasFar {
			t.Fatalf("tet %d %v misses cube diagonal", c, vs)
		}
	}
}

// The cell numbering and corner tables point location uses must name
// exactly the vertices CellVertices gives, in its order: checked for every
// cell of small 2D and 3D grids.
func TestCornerSlotsMatchCellVertices(t *testing.T) {
	for _, g := range []*Grid{New2D(2, 2), New2D(5, 4), New3D(2, 2, 2), New3D(3, 4, 5), New3D(4, 2, 3)} {
		nx, ny, nz := g.Dims()
		per, nk := CellsPerCube, nz-1
		if g.Dim() == 2 {
			per, nk = CellsPerSquare, 1
		}
		seen := 0
		for k := 0; k < nk; k++ {
			for j := 0; j < ny-1; j++ {
				for i := 0; i < nx-1; i++ {
					for tet := 0; tet < per; tet++ {
						c := g.CellIndex(i, j, k, tet)
						var slots []int
						if g.Dim() == 2 {
							slots = TriangleCorners[tet][:]
						} else {
							slots = KuhnCorners[tet][:]
						}
						var got []int
						for _, s := range slots {
							got = append(got, g.VertexIndex(i+s&1, j+s>>1&1, k+s>>2))
						}
						if want := g.CellVertices(c, nil); !slices.Equal(got, want) {
							t.Fatalf("dim %d cube (%d,%d,%d) simplex %d: corner slots give %v, CellVertices(%d) %v",
								g.Dim(), i, j, k, tet, got, c, want)
						}
						seen++
					}
				}
			}
		}
		if seen != g.NumCells() {
			t.Fatalf("dim %d: CellIndex covered %d cells, want %d", g.Dim(), seen, g.NumCells())
		}
	}
}

// KuhnTet picks the tetrahedron whose kuhnPerms entry sorts the local
// coordinates non-increasingly, keeping the lower axis first on a tie (a
// stable sort), and returns them in that order: checked on every
// coordinate triple over a lattice that makes every kind of tie, and on
// random triples.
func TestKuhnTetSortsStably(t *testing.T) {
	check := func(l [3]float64) {
		t.Helper()
		tet, s0, s1, s2 := KuhnTet(l[0], l[1], l[2])
		want := []int{0, 1, 2}
		slices.SortStableFunc(want, func(a, b int) int {
			switch {
			case l[a] > l[b]:
				return -1
			case l[a] < l[b]:
				return 1
			}
			return 0
		})
		if p := kuhnPerms[tet]; !slices.Equal(p[:], want) {
			t.Fatalf("KuhnTet(%v) = tetrahedron %d with axes %v, want axes %v", l, tet, p, want)
		}
		if s := [3]float64{s0, s1, s2}; s != [3]float64{l[want[0]], l[want[1]], l[want[2]]} {
			t.Fatalf("KuhnTet(%v) sorted coordinates %v, want them in axis order %v", l, s, want)
		}
	}
	lattice := []float64{0, 0.25, 0.5, 1}
	for _, x := range lattice {
		for _, y := range lattice {
			for _, z := range lattice {
				check([3]float64{x, y, z})
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 2000; n++ {
		check([3]float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
}
