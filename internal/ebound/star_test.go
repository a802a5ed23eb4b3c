package ebound

import (
	"math"
	"math/rand"
	"testing"

	"tspsz/internal/critical"
	"tspsz/internal/field"
)

// oneCell2D runs the derivation kernel on a star of one triangle, holding
// v with the centre in row cur: the bound that cell alone allows, and
// whether it holds a critical point. With sos it returns the cpSZ-sos
// bound instead.
func oneCell2D(v [3][2]float64, cur int, mode Mode, sos bool) (eb float64, hasCP bool) {
	var rows [4][3]float64
	for r := range v {
		rows[r] = [3]float64{v[r][0], v[r][1]}
	}
	return oneCell(&star2D, &rows, cur, mode, sos)
}

// oneCell3D is oneCell2D for a tetrahedron.
func oneCell3D(v [4][3]float64, cur int, mode Mode, sos bool) (eb float64, hasCP bool) {
	return oneCell(&star3D, &v, cur, mode, sos)
}

// oneCell loads rows into the first star cell whose centre sits in row
// cur, marks that cell alone present and derives the bound.
func oneCell(t *star, rows *[4][3]float64, cur int, mode Mode, sos bool) (float64, bool) {
	for c := range t.cells {
		sc := &t.cells[c]
		if sc.Cur != cur {
			continue
		}
		var s starValues
		s.present = 1 << c
		for r := 0; r <= t.dim; r++ {
			s.val[t.slot(sc.Off[r])] = rows[r]
		}
		return s.bound(t, mode, sos)
	}
	panic("ebound: no star cell has its centre in that row")
}

// slot returns the value slot of the star vertex at lattice offset off.
func (t *star) slot(off [3]int) int {
	for v := range t.verts {
		if t.verts[v].off == off {
			return v
		}
	}
	panic("ebound: offset outside the star")
}

// The tables share what DESIGN.md §3 counts: the 3D star has 15
// vertices, 50 edges and 60 faces, of which 14 edges and 36 faces pass
// through the centre and are evaluated again for each of the three raised
// components; the 2D star's 6 triangles read 18 ordered pairs, 12 of them
// through the centre.
func TestStarTableSizes(t *testing.T) {
	for _, tc := range []struct {
		t                                     *star
		verts, minors0, minors, faces0, faces int
	}{
		{&star2D, 7, 18, 18 + 12*2, 0, 0},
		{&star3D, 15, 50, 50 + 14*3, 60, 60 + 36*3},
	} {
		tb := tc.t
		got := [5]int{len(tb.verts), tb.minors0, len(tb.minors), tb.faces0, len(tb.faces)}
		want := [5]int{tc.verts, tc.minors0, tc.minors, tc.faces0, tc.faces}
		if got != want {
			t.Errorf("%dD star: vertices, minors (unperturbed, all), faces (unperturbed, all) = %v, want %v", tb.dim, got, want)
		}
	}
}

// The kernel's numerators are critical.Barycentric2D and Barycentric3D's
// bit for bit, any NaN matching any NaN: d_k and M of every present cell
// of random and special-valued stars, and the p_ik and M_i of the centre
// raised by one along each component, as the reference raises it (x + 1
// on one component, x + 0 on the others). Random subsets of cells are
// present, so a determinant whose cell mask missed a cell would stay
// unevaluated and show here.
func TestNumeratorsMatchCritical(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	val := func() float64 {
		if rng.Intn(4) == 0 {
			return float64(specials[rng.Intn(len(specials))])
		}
		return rng.NormFloat64()
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, tb := range []*star{&star2D, &star3D} {
		nv := tb.dim + 1
		for trial := 0; trial < 4000; trial++ {
			var s starValues
			for v := range tb.verts {
				for j := 0; j < tb.dim; j++ {
					s.val[v][j] = val()
				}
			}
			s.present = uint32(1<<len(tb.cells) - 1)
			if trial%2 == 1 {
				s.present = rng.Uint32() & s.present
			}
			s.numerators(tb)
			s.perturb(tb)
			for c := range tb.cells {
				if s.present>>c&1 == 0 {
					continue
				}
				sc := &tb.cells[c]
				var rows [4][3]float64
				for r := 0; r < nv; r++ {
					rows[r] = s.val[tb.slot(sc.Off[r])]
				}
				var l linearization
				s.linearize(tb, c, &l)
				for i := -1; i < tb.dim; i++ {
					w := rows
					d, m := l.d, l.m
					if i >= 0 {
						for j := 0; j < tb.dim; j++ {
							add := 0.0
							if j == i {
								add = 1
							}
							w[sc.Cur][j] += add
						}
						d, m = l.p[i], l.pm[i]
					}
					var want [4]float64
					var wantM float64
					if tb.dim == 2 {
						var v [3][2]float64
						for r := range v {
							v[r] = [2]float64{w[r][0], w[r][1]}
						}
						var m3 [3]float64
						m3, wantM = critical.Barycentric2D(v)
						copy(want[:], m3[:])
					} else {
						want, wantM = critical.Barycentric3D(w)
					}
					ok := same(m, wantM)
					for k := 0; k < nv; k++ {
						ok = ok && same(d[k], want[k])
					}
					if !ok {
						t.Fatalf("%dD cell %d raised %d: numerators %v sum %v, critical %v sum %v (cell %v)",
							tb.dim, c, i, d[:nv], m, want[:nv], wantM, w[:nv])
					}
				}
			}
		}
	}
}

// VertexBound and VertexBoundSoS keep their star on the stack.
func TestVertexBoundAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, f := range []*field.Field{randomField(rng, 9, 7, 1), randomField(rng, 6, 5, 4)} {
		for _, idx := range []int{0, f.Grid.VertexIndex(2, 2, f.Dim()-2)} {
			if a := testing.AllocsPerRun(50, func() { VertexBound(f, idx, Relative) }); a != 0 {
				t.Errorf("%dD vertex %d: VertexBound allocates %v times per call", f.Dim(), idx, a)
			}
			if a := testing.AllocsPerRun(50, func() { VertexBoundSoS(f, idx, Absolute) }); a != 0 {
				t.Errorf("%dD vertex %d: VertexBoundSoS allocates %v times per call", f.Dim(), idx, a)
			}
		}
	}
}
