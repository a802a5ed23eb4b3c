package grid_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tspsz/internal/field/fieldtest"
	"tspsz/internal/grid"
)

// These tests hold the reference point location, fieldtest.RefLocate, to
// its geometric contract; field.Sampler is held to the reference bit for
// bit (TestSamplerMatchesReference, FuzzSample).

func barycentricReconstructs(g *grid.Grid, p [3]float64) bool {
	cell, bc, ok := fieldtest.RefLocate(g, p)
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
	g := grid.New2D(6, 4)
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
	g := grid.New3D(4, 5, 3)
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
	g := grid.New2D(4, 4)
	for _, p := range [][3]float64{{-0.1, 1, 0}, {1, -0.1, 0}, {3.01, 1, 0}, {1, 3.5, 0}} {
		if _, _, ok := fieldtest.RefLocate(g, p); ok {
			t.Errorf("RefLocate(%v) should be outside", p)
		}
	}
	g3 := grid.New3D(4, 4, 4)
	for _, p := range [][3]float64{{1, 1, -0.2}, {1, 1, 3.2}} {
		if _, _, ok := fieldtest.RefLocate(g3, p); ok {
			t.Errorf("3D RefLocate(%v) should be outside", p)
		}
	}
}

// A NaN coordinate fails every comparison, so a bounds test written as
// "outside" would let it through with NaN barycentric weights.
func TestLocateNaNOutside(t *testing.T) {
	nan := math.NaN()
	g := grid.New2D(4, 4)
	for _, p := range [][3]float64{{nan, 1, 0}, {1, nan, 0}, {nan, nan, 0}} {
		if _, _, ok := fieldtest.RefLocate(g, p); ok {
			t.Errorf("RefLocate(%v) should be outside", p)
		}
	}
	g3 := grid.New3D(4, 4, 4)
	for _, p := range [][3]float64{{nan, 1, 1}, {1, nan, 1}, {1, 1, nan}} {
		if _, _, ok := fieldtest.RefLocate(g3, p); ok {
			t.Errorf("3D RefLocate(%v) should be outside", p)
		}
	}
}

func TestLocateBoundaryCorners(t *testing.T) {
	g := grid.New2D(4, 4)
	for _, p := range [][3]float64{{0, 0, 0}, {3, 3, 0}, {3, 0, 0}, {0, 3, 0}} {
		if !barycentricReconstructs(g, p) {
			t.Errorf("corner %v not reconstructed", p)
		}
	}
	g3 := grid.New3D(3, 3, 3)
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
	g := grid.New3D(5, 5, 5)
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200; n++ {
		p := [3]float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
		c1, bc1, ok1 := fieldtest.RefLocate(g, p)
		c2, bc2, ok2 := fieldtest.RefLocate(g, p)
		if c1 != c2 || bc1 != bc2 || ok1 != ok2 {
			t.Fatalf("RefLocate not deterministic at %v", p)
		}
	}
}
