package integrate

import (
	"math"
	"math/rand"
	"testing"

	"tspsz/internal/critical"
	"tspsz/internal/field"
)

func fill2D(f *field.Field, fn func(x, y float64) (float64, float64)) {
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		u, v := fn(p[0], p[1])
		f.U[idx] = float32(u)
		f.V[idx] = float32(v)
	}
}

func TestUniformFlowLeavesDomain(t *testing.T) {
	f := field.New2D(8, 8)
	fill2D(f, func(x, y float64) (float64, float64) { return 1, 0 })
	tr := TraceStreamline(f, [3]float64{1, 3.5, 0}, 1, DefaultParams(), nil, nil)
	if tr.Term != LeftDomain {
		t.Fatalf("termination %v, want left-domain", tr.Term)
	}
	last := tr.Points[len(tr.Points)-1]
	if last[0] < 6 {
		t.Errorf("trajectory stopped early at %v", last)
	}
}

func TestStreamlineAbsorbedAtSink(t *testing.T) {
	f := field.New2D(11, 11)
	fill2D(f, func(x, y float64) (float64, float64) { return -(x - 5.3), -(y - 5.2) })
	cps := critical.Extract(f)
	if len(cps) != 1 || cps[0].Type != critical.Sink {
		t.Fatalf("setup: want one sink, got %v", cps)
	}
	par := DefaultParams()
	par.H = 0.1
	par.MaxSteps = 5000
	tr := TraceStreamline(f, [3]float64{2, 2, 0}, 1, par, cps, nil)
	if tr.Term != AbsorbedAtCP || tr.EndCP != 0 {
		t.Fatalf("termination %v endCP %d, want absorbed at 0", tr.Term, tr.EndCP)
	}
}

func TestBackwardTracingFromSinkActsAsSource(t *testing.T) {
	f := field.New2D(11, 11)
	fill2D(f, func(x, y float64) (float64, float64) { return -(x - 5.3), -(y - 5.2) })
	// Backward integration of a sink field repels: must leave the domain.
	tr := TraceStreamline(f, [3]float64{4, 4, 0}, -1, DefaultParams(), nil, nil)
	if tr.Term != LeftDomain {
		t.Fatalf("termination %v, want left-domain", tr.Term)
	}
}

// RK4 on an exactly-linear rotation field must conserve the radius to high
// order.
func TestRK4RotationAccuracy(t *testing.T) {
	f := field.New2D(17, 17)
	fill2D(f, func(x, y float64) (float64, float64) { return -(y - 8), x - 8 })
	par := Params{EpsP: 1e-3, MaxSteps: 126, H: 0.05} // ≈ one revolution
	start := [3]float64{11, 8, 0}                     // radius 3 around center (8,8)
	tr := TraceStreamline(f, start, 1, par, nil, nil)
	if tr.Term != MaxSteps {
		t.Fatalf("termination %v, want max-steps", tr.Term)
	}
	for i, p := range tr.Points {
		r := math.Hypot(p[0]-8, p[1]-8)
		if math.Abs(r-3) > 1e-3 {
			t.Fatalf("point %d: radius %v drifted from 3", i, r)
		}
	}
}

func saddleField(t *testing.T) (*field.Field, []critical.Point) {
	t.Helper()
	// u = -(x-2)(x-6)/2 has a saddle at x=2 and a sink at x=6 (with
	// v = -(y-4)): classic saddle-sink connection along y=4.
	f := field.New2D(9, 9)
	fill2D(f, func(x, y float64) (float64, float64) {
		return -(x - 2) * (x - 6) / 2, -(y - 4.2)
	})
	cps := critical.Extract(f)
	return f, cps
}

func TestSeparatrixSeedsCount2D(t *testing.T) {
	_, cps := saddleField(t)
	var saddle *critical.Point
	for i := range cps {
		if cps[i].Type == critical.Saddle {
			saddle = &cps[i]
		}
	}
	if saddle == nil {
		t.Fatalf("no saddle in %v", cps)
	}
	seeds, dirs, idx := SeparatrixSeeds(*saddle, 1e-3)
	if len(seeds) != 4 || len(dirs) != 4 || len(idx) != 4 {
		t.Fatalf("2D saddle has %d seeds, want 4", len(seeds))
	}
}

func TestSeparatrixConnectsSaddleToSink(t *testing.T) {
	f, cps := saddleField(t)
	sinks := map[int]bool{}
	for i := range cps {
		if cps[i].Type == critical.Sink {
			sinks[i] = true
		}
	}
	if len(sinks) == 0 {
		t.Fatalf("no sink in %v", cps)
	}
	par := Params{EpsP: 1e-2, MaxSteps: 4000, H: 0.05}
	trs := TraceSeparatrices(f, cps, par, nil)
	if len(trs) != 4*critical.CountSaddles(cps) {
		t.Fatalf("traced %d separatrices, want %d", len(trs), 4*critical.CountSaddles(cps))
	}
	absorbed := 0
	for _, tr := range trs {
		if tr.Term == AbsorbedAtCP && sinks[tr.EndCP] {
			absorbed++
		}
	}
	if absorbed == 0 {
		t.Error("no separatrix reached the sink")
	}
}

// The involved-vertex guarantee behind TspSZ-I: perturbing vertices that a
// trace never touched must leave the trajectory bitwise identical.
func TestInvolvedVerticesSufficientForExactRetrace(t *testing.T) {
	f, cps := saddleField(t)
	checkExactRetrace(t, f, cps, Params{EpsP: 1e-2, MaxSteps: 2000, H: 0.05})
}

// The same guarantee on Kuhn tetrahedra, around a saddle-focus whose
// in-plane separatrices spiral out slowly: they leave and re-enter the
// tetrahedra around the saddle many times, and each entry is recorded
// again, so the record is complete however the cells repeat.
func TestInvolvedVerticesSufficientForExactRetrace3D(t *testing.T) {
	f := field.New3D(10, 10, 10)
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		x, y, z := p[0]-4.3, p[1]-4.6, p[2]-4.4
		f.U[idx] = float32(0.05*x - y + 0.02*y*z)
		f.V[idx] = float32(x + 0.05*y - 0.02*x*z)
		f.W[idx] = float32(-0.5*z + 0.01*x*y)
	}
	cps := critical.Extract(f)
	if critical.CountSaddles(cps) == 0 {
		t.Fatalf("setup: no saddle in %v", cps)
	}
	// A long step spreads the four RK4 stages over different cells, so a
	// record that missed any stage's cell would be caught.
	par := Params{EpsP: 1e-2, MaxSteps: 3000, H: 0.3}
	reentries := 0
	loc := NewCPLocator(cps)
	for _, cp := range cps {
		if cp.Type != critical.Saddle {
			continue
		}
		seeds, dirs, _ := SeparatrixSeeds(cp, par.EpsP)
		for si := range seeds {
			var verts []int
			Streamline(f, seeds[si], dirs[si], par, loc, &verts)
			// Each entry appends one cell's four ids; a cell entered
			// again shows up as a repeated group.
			seen := map[[4]int]bool{}
			for i := 0; i+4 <= len(verts); i += 4 {
				c := [4]int(verts[i : i+4])
				if seen[c] {
					reentries++
				}
				seen[c] = true
			}
		}
	}
	if reentries == 0 {
		t.Fatal("setup: no separatrix re-entered a cell")
	}
	checkExactRetrace(t, f, cps, par)
}

// checkExactRetrace perturbs every vertex the separatrices of cps did not
// record and requires every separatrix to retrace bit for bit.
func checkExactRetrace(t *testing.T, f *field.Field, cps []critical.Point, par Params) {
	t.Helper()
	var involved []int
	orig := TraceSeparatrices(f, cps, par, &involved)
	mark := make([]bool, f.NumVertices())
	for _, v := range involved {
		mark[v] = true
	}
	touched := 0
	g := f.Clone()
	rng := rand.New(rand.NewSource(99))
	for i := range mark {
		if !mark[i] {
			g.U[i] += rng.Float32() * 10
			g.V[i] += rng.Float32() * 10
			if g.W != nil {
				g.W[i] += rng.Float32() * 10
			}
			touched++
		}
	}
	if touched == 0 {
		t.Skip("every vertex involved; perturbation impossible on this grid")
	}
	re := TraceSeparatrices(g, cps, par, nil)
	if len(re) != len(orig) {
		t.Fatalf("retrace produced %d trajectories, want %d", len(re), len(orig))
	}
	for i := range orig {
		if len(orig[i].Points) != len(re[i].Points) {
			t.Fatalf("separatrix %d: %d vs %d points", i, len(orig[i].Points), len(re[i].Points))
		}
		for j := range orig[i].Points {
			if orig[i].Points[j] != re[i].Points[j] {
				t.Fatalf("separatrix %d diverges at point %d: %v vs %v",
					i, j, orig[i].Points[j], re[i].Points[j])
			}
		}
		if orig[i].Term != re[i].Term || orig[i].EndCP != re[i].EndCP {
			t.Fatalf("separatrix %d: termination changed", i)
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	f, cps := saddleField(t)
	par := DefaultParams()
	a := TraceSeparatrices(f, cps, par, nil)
	b := TraceSeparatrices(f, cps, par, nil)
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if len(a[i].Points) != len(b[i].Points) {
			t.Fatalf("separatrix %d nondeterministic length", i)
		}
		for j := range a[i].Points {
			if a[i].Points[j] != b[i].Points[j] {
				t.Fatalf("separatrix %d nondeterministic at %d", i, j)
			}
		}
	}
}

func TestRetraceMatchesOriginal(t *testing.T) {
	f, cps := saddleField(t)
	par := Params{EpsP: 1e-2, MaxSteps: 1000, H: 0.05}
	trs := TraceSeparatrices(f, cps, par, nil)
	loc := NewCPLocator(cps)
	for i := range trs {
		re := Retrace(f, cps, loc, &trs[i], par, nil)
		if len(re.Points) != len(trs[i].Points) {
			t.Fatalf("retrace %d: %d vs %d points", i, len(re.Points), len(trs[i].Points))
		}
		for j := range re.Points {
			if re.Points[j] != trs[i].Points[j] {
				t.Fatalf("retrace %d diverges at %d", i, j)
			}
		}
	}
}

func TestZeroVelocityTermination(t *testing.T) {
	f := field.New2D(6, 6)
	fill2D(f, func(x, y float64) (float64, float64) { return 0, 0 })
	tr := TraceStreamline(f, [3]float64{2.5, 2.5, 0}, 1, DefaultParams(), nil, nil)
	if tr.Term != ZeroVelocity {
		t.Fatalf("termination %v, want zero-velocity", tr.Term)
	}
}

func TestTerminationString(t *testing.T) {
	cases := map[Termination]string{
		MaxSteps: "max-steps", AbsorbedAtCP: "absorbed",
		LeftDomain: "left-domain", ZeroVelocity: "zero-velocity",
	}
	for k, v := range cases {
		if k.String() != v {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), v)
		}
	}
}

func BenchmarkTraceSeparatrices(b *testing.B) {
	f := field.New2D(64, 64)
	fill2D(f, func(x, y float64) (float64, float64) {
		return math.Sin(x/5) * math.Cos(y/5), -math.Cos(x/5) * math.Sin(y/5)
	})
	cps := critical.Extract(f)
	par := DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TraceSeparatrices(f, cps, par, nil)
	}
}
