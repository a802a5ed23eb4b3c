package ebound

import (
	"math"
	"math/rand"
	"testing"

	"tspsz/internal/critical"
	"tspsz/internal/field"
)

func cellHasCP2D(v [3][2]float64) bool {
	m, M := critical.Barycentric2D(v)
	if M == 0 {
		return false
	}
	for k := 0; k < 3; k++ {
		if mu := m[k] / M; mu < 0 || mu > 1 {
			return false
		}
	}
	return true
}

func cellHasCP3D(v [4][3]float64) bool {
	d, M := critical.Barycentric3D(v)
	if M == 0 {
		return false
	}
	for k := 0; k < 4; k++ {
		if mu := d[k] / M; mu < 0 || mu > 1 {
			return false
		}
	}
	return true
}

// Core soundness property (absolute mode): any perturbation of the current
// vertex within the derived bound must not create a critical point.
func TestCell2DAbsoluteNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tested := 0
	for trial := 0; trial < 20000 && tested < 5000; trial++ {
		var v [3][2]float64
		for i := range v {
			v[i][0] = rng.NormFloat64()
			v[i][1] = rng.NormFloat64()
		}
		if cellHasCP2D(v) {
			continue
		}
		cur := rng.Intn(3)
		eb, hasCP := oneCell2D(v, cur, Absolute, false)
		if hasCP {
			t.Fatalf("trial %d: hasCP for cp-free cell", trial)
		}
		if eb == 0 {
			continue
		}
		bound := eb
		if math.IsInf(bound, 1) {
			bound = 1e6
		}
		tested++
		for probe := 0; probe < 40; probe++ {
			w := v
			// Worst cases for a linear expression are at box corners;
			// probe corners and random interior points.
			var du, dv float64
			switch probe % 4 {
			case 0:
				du, dv = bound, bound
			case 1:
				du, dv = bound, -bound
			case 2:
				du, dv = -bound, bound
			default:
				du = (rng.Float64()*2 - 1) * bound
				dv = (rng.Float64()*2 - 1) * bound
			}
			w[cur][0] += du
			w[cur][1] += dv
			if cellHasCP2D(w) {
				t.Fatalf("trial %d: FP created with |ξ| ≤ %v (du=%v dv=%v, v=%v cur=%d)",
					trial, eb, du, dv, v, cur)
			}
		}
	}
	if tested < 1000 {
		t.Fatalf("only %d cells exercised; generator too degenerate", tested)
	}
}

func TestCell2DRelativeNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tested := 0
	for trial := 0; trial < 20000 && tested < 4000; trial++ {
		var v [3][2]float64
		for i := range v {
			v[i][0] = rng.NormFloat64()
			v[i][1] = rng.NormFloat64()
		}
		if cellHasCP2D(v) {
			continue
		}
		cur := rng.Intn(3)
		ebr, hasCP := oneCell2D(v, cur, Relative, false)
		if hasCP || ebr == 0 {
			continue
		}
		bound := ebr
		if math.IsInf(bound, 1) {
			bound = 1e3
		}
		tested++
		for probe := 0; probe < 30; probe++ {
			w := v
			su, sv := 1.0, 1.0
			if probe%2 == 1 {
				su = -1
			}
			if (probe/2)%2 == 1 {
				sv = -1
			}
			w[cur][0] += su * bound * math.Abs(v[cur][0])
			w[cur][1] += sv * bound * math.Abs(v[cur][1])
			if cellHasCP2D(w) {
				t.Fatalf("trial %d: relative FP with ε_r ≤ %v", trial, ebr)
			}
		}
	}
	if tested < 500 {
		t.Fatalf("only %d cells exercised", tested)
	}
}

func TestCell3DAbsoluteNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tested := 0
	for trial := 0; trial < 20000 && tested < 3000; trial++ {
		var v [4][3]float64
		for i := range v {
			for d := 0; d < 3; d++ {
				v[i][d] = rng.NormFloat64()
			}
		}
		if cellHasCP3D(v) {
			continue
		}
		cur := rng.Intn(4)
		eb, hasCP := oneCell3D(v, cur, Absolute, false)
		if hasCP {
			t.Fatalf("trial %d: hasCP for cp-free cell", trial)
		}
		if eb == 0 || math.IsInf(eb, 1) {
			continue
		}
		tested++
		for probe := 0; probe < 30; probe++ {
			w := v
			for d := 0; d < 3; d++ {
				s := 1.0
				if probe>>(uint(d))&1 == 1 {
					s = -1
				}
				if probe >= 8 {
					s = rng.Float64()*2 - 1
				}
				w[cur][d] += s * eb
			}
			if cellHasCP3D(w) {
				t.Fatalf("trial %d: 3D FP created within eb=%v", trial, eb)
			}
		}
	}
	if tested < 500 {
		t.Fatalf("only %d cells exercised", tested)
	}
}

// A cell that already contains a critical point must force lossless.
func TestCellWithCPForcesLossless(t *testing.T) {
	// Radial vectors around an interior zero: place cp strictly inside.
	v2 := [3][2]float64{{-1, -1}, {1, -0.5}, {0, 1.5}}
	if !cellHasCP2D(v2) {
		t.Fatal("test cell should contain a cp")
	}
	eb, hasCP := oneCell2D(v2, 0, Absolute, false)
	if !hasCP || eb != 0 {
		t.Errorf("one-cell kernel on cp cell: eb=%v hasCP=%v", eb, hasCP)
	}
}

// Uniform fields are unconstrained: no perturbation of a single vertex can
// create a critical point when the other vertices are identical.
func TestUniformCellUnbounded(t *testing.T) {
	v := [3][2]float64{{1, 0}, {1, 0}, {1, 0}}
	eb, hasCP := oneCell2D(v, 2, Absolute, false)
	if hasCP {
		t.Fatal("uniform cell misreported as containing a cp")
	}
	if !math.IsInf(eb, 1) {
		t.Errorf("uniform cell bound %v, want +Inf", eb)
	}
}

// Parallel-but-distinct vectors are the conservative degenerate case: a
// perturbation could create a boundary cp, so the bound must be 0.
func TestParallelDistinctCellLossless(t *testing.T) {
	v := [3][2]float64{{1, 0}, {2, 0}, {3, 0}}
	eb, hasCP := oneCell2D(v, 2, Absolute, false)
	if hasCP {
		t.Fatal("parallel cell misreported as containing a cp")
	}
	if eb != 0 {
		t.Errorf("parallel-distinct cell bound %v, want 0", eb)
	}
}

func TestVertexBoundAggregatesMin(t *testing.T) {
	f := field.New2D(5, 5)
	rng := rand.New(rand.NewSource(31))
	for i := range f.U {
		f.U[i] = rng.Float32() + 0.5 // keep away from zero: no cps
		f.V[i] = rng.Float32() + 0.5
	}
	idx := f.Grid.VertexIndex(2, 2, 0)
	eb, hasCP := VertexBound(f, idx, Absolute)
	if hasCP {
		t.Fatal("cp reported in positive-vector field")
	}
	if !(eb > 0) {
		t.Fatalf("vertex bound %v, want > 0", eb)
	}
	// The aggregate must be no larger than each adjacent cell bound.
	var vbuf [4]int
	for s := range f.Grid.Star() {
		c, ok := f.Grid.StarCellAt(&f.Grid.Star()[s], 2, 2, 0)
		if !ok {
			t.Fatalf("star cell %d of an interior vertex lies outside the grid", s)
		}
		vs := f.Grid.CellVertices(c, vbuf[:0])
		var v [3][2]float64
		cur := -1
		for i, vi := range vs {
			v[i][0] = float64(f.U[vi])
			v[i][1] = float64(f.V[vi])
			if vi == idx {
				cur = i
			}
		}
		cellEB, _ := oneCell2D(v, cur, Absolute, false)
		if eb > cellEB {
			t.Fatalf("vertex bound %v exceeds cell bound %v", eb, cellEB)
		}
	}
}

func TestVertexBoundDetectsCP(t *testing.T) {
	f := field.New2D(7, 7)
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		f.U[idx] = float32(p[0] - 3.3)
		f.V[idx] = float32(p[1] - 3.4)
	}
	// Vertices adjacent to the cp cell must be lossless.
	cps := critical.Extract(f)
	if len(cps) == 0 {
		t.Fatal("setup: no cp found")
	}
	for _, vi := range f.Grid.CellVertices(cps[0].Cell, nil) {
		if _, hasCP := VertexBound(f, vi, Absolute); !hasCP {
			t.Errorf("vertex %d of cp cell not flagged", vi)
		}
	}
	// A far-away vertex must not be flagged.
	if _, hasCP := VertexBound(f, f.Grid.VertexIndex(0, 0, 0), Absolute); hasCP {
		t.Error("corner vertex incorrectly flagged as cp-adjacent")
	}
}

func TestModeString(t *testing.T) {
	if Relative.String() != "rel" || Absolute.String() != "abs" {
		t.Error("Mode.String mismatch")
	}
}

// The absolute bound from Lemma 1 for the worked example in §VI-B:
// preserving sign of m0 = u1·v2 − u2·v1 when perturbing (u2, v2) gives
// ε = |m0| / (|u1| + |v1|).
func TestLemma1ClosedForm(t *testing.T) {
	v := [3][2]float64{{5, 7}, {2, -3}, {4, 1}}
	m, M := critical.Barycentric2D(v)
	if cellHasCP2D(v) {
		t.Skip("unexpected cp in fixture")
	}
	// Find which k the implementation would consider; verify the reported
	// bound equals one of the closed-form candidates.
	eb, hasCP := oneCell2D(v, 2, Absolute, false)
	if hasCP {
		t.Fatal("fixture misreported")
	}
	candidates := map[float64]bool{}
	for k := 0; k < 3; k++ {
		if mu := m[k] / M; mu >= 0 && mu <= 1 {
			continue
		}
		var e1, e2 float64
		switch k {
		case 0: // m0 = u1·v2 − u2·v1, rest = m1 + m2
			e1 = math.Abs(m[0]) / (math.Abs(v[1][0]) + math.Abs(v[1][1]))
			e2 = math.Abs(M-m[0]) / (math.Abs(v[0][0]) + math.Abs(v[0][1]))
		case 1: // m1 = u2·v0 − u0·v2
			e1 = math.Abs(m[1]) / (math.Abs(v[0][0]) + math.Abs(v[0][1]))
			e2 = math.Abs(M-m[1]) / (math.Abs(v[1][0]) + math.Abs(v[1][1]))
		case 2: // m2 does not involve vertex 2
			e1 = math.Inf(1)
			e2 = math.Abs(M-m[2]) / (math.Abs(v[0][0]-v[1][0]) + math.Abs(v[0][1]-v[1][1]))
		}
		candidates[math.Min(e1, e2)] = true
	}
	found := false
	for c := range candidates {
		// Allow for the implementation's 1e-9 safety margin.
		if math.Abs(c-eb) < 1e-8*(1+c) {
			found = true
		}
	}
	if !found {
		t.Errorf("one-cell kernel bound %v not among closed-form candidates %v", eb, candidates)
	}
}
