package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func barycentricReconstructs(g *Grid, p [3]float64) bool {
	cell, bc, ok := g.Locate(p)
	if !ok {
		return false
	}
	var pos [4][3]float64
	ps := g.CellVerticesPositions(cell, pos[:0])
	var rec [3]float64
	sum := 0.0
	for i, vp := range ps {
		if bc[i] < -1e-12 {
			return false
		}
		sum += bc[i]
		for d := 0; d < 3; d++ {
			rec[d] += bc[i] * vp[d]
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return false
	}
	for d := 0; d < g.Dim(); d++ {
		if math.Abs(rec[d]-p[d]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestLocateReconstructs2D(t *testing.T) {
	g := New2D(6, 4)
	f := func(a, b uint16) bool {
		x := float64(a) / 65535 * 5
		y := float64(b) / 65535 * 3
		return barycentricReconstructs(g, [3]float64{x, y, 0})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLocateReconstructs3D(t *testing.T) {
	g := New3D(4, 5, 3)
	f := func(a, b, c uint16) bool {
		x := float64(a) / 65535 * 3
		y := float64(b) / 65535 * 4
		z := float64(c) / 65535 * 2
		return barycentricReconstructs(g, [3]float64{x, y, z})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLocateOutside(t *testing.T) {
	g := New2D(4, 4)
	for _, p := range [][3]float64{{-0.1, 1, 0}, {1, -0.1, 0}, {3.01, 1, 0}, {1, 3.5, 0}} {
		if _, _, ok := g.Locate(p); ok {
			t.Errorf("Locate(%v) should be outside", p)
		}
	}
	g3 := New3D(4, 4, 4)
	for _, p := range [][3]float64{{1, 1, -0.2}, {1, 1, 3.2}} {
		if _, _, ok := g3.Locate(p); ok {
			t.Errorf("3D Locate(%v) should be outside", p)
		}
	}
}

// A NaN coordinate fails every comparison, so a bounds test written as
// "outside" would let it through with NaN barycentric weights.
func TestLocateNaNOutside(t *testing.T) {
	nan := math.NaN()
	g := New2D(4, 4)
	for _, p := range [][3]float64{{nan, 1, 0}, {1, nan, 0}, {nan, nan, 0}} {
		if _, _, ok := g.Locate(p); ok {
			t.Errorf("Locate(%v) should be outside", p)
		}
	}
	g3 := New3D(4, 4, 4)
	for _, p := range [][3]float64{{nan, 1, 1}, {1, nan, 1}, {1, 1, nan}} {
		if _, _, ok := g3.Locate(p); ok {
			t.Errorf("3D Locate(%v) should be outside", p)
		}
	}
}

func TestLocateBoundaryCorners(t *testing.T) {
	g := New2D(4, 4)
	for _, p := range [][3]float64{{0, 0, 0}, {3, 3, 0}, {3, 0, 0}, {0, 3, 0}} {
		if !barycentricReconstructs(g, p) {
			t.Errorf("corner %v not reconstructed", p)
		}
	}
	g3 := New3D(3, 3, 3)
	for _, p := range [][3]float64{{0, 0, 0}, {2, 2, 2}, {2, 0, 2}} {
		if !barycentricReconstructs(g3, p) {
			t.Errorf("3D corner %v not reconstructed", p)
		}
	}
}

// The located cell must actually contain the queried point's vertex span:
// every barycentric coordinate non-negative already checks containment; this
// test additionally confirms the cell id is stable for interior points.
func TestLocateDeterministic(t *testing.T) {
	g := New3D(5, 5, 5)
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200; n++ {
		p := [3]float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
		c1, bc1, ok1 := g.Locate(p)
		c2, bc2, ok2 := g.Locate(p)
		if c1 != c2 || bc1 != bc2 || ok1 != ok2 {
			t.Fatalf("Locate not deterministic at %v", p)
		}
	}
}

func BenchmarkLocate3D(b *testing.B) {
	g := New3D(64, 64, 64)
	rng := rand.New(rand.NewSource(1))
	pts := make([][3]float64, 1024)
	for i := range pts {
		pts[i] = [3]float64{rng.Float64() * 63, rng.Float64() * 63, rng.Float64() * 63}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Locate(pts[i%len(pts)])
	}
}
