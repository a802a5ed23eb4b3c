package skeleton

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tspsz/internal/field"
	"tspsz/internal/integrate"
	"tspsz/internal/parallel"
)

// gyreField builds a double-gyre-like field with several critical points:
// u = -π sin(πx/L) cos(πy/L), v = π cos(πx/L) sin(πy/L) on a (2L+1)² grid.
func gyreField(n int) *field.Field {
	f := field.New2D(n, n)
	l := float64(n-1) / 2
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		f.U[idx] = float32(-math.Pi * math.Sin(math.Pi*p[0]/l) * math.Cos(math.Pi*p[1]/l))
		f.V[idx] = float32(math.Pi * math.Cos(math.Pi*p[0]/l) * math.Sin(math.Pi*p[1]/l))
	}
	return f
}

func TestExtractFindsSkeleton(t *testing.T) {
	f := gyreField(21)
	sk := Extract(f, integrate.DefaultParams())
	if len(sk.CPs) == 0 {
		t.Fatal("no critical points found in gyre field")
	}
	if sk.NumSaddles() == 0 {
		t.Fatal("no saddles found in gyre field")
	}
	if want := 4 * sk.NumSaddles(); len(sk.Seps) != want {
		t.Fatalf("%d separatrices, want %d (4 per saddle)", len(sk.Seps), want)
	}
}

func TestExtractParallelMatchesSerial(t *testing.T) {
	f := gyreField(21)
	par := integrate.DefaultParams()
	serial := Extract(f, par)
	for _, workers := range []int{1, 2, 3, 7} {
		p := ExtractParallel(f, par, workers)
		if len(p.CPs) != len(serial.CPs) {
			t.Fatalf("workers=%d: %d cps, want %d", workers, len(p.CPs), len(serial.CPs))
		}
		for i := range p.CPs {
			if p.CPs[i].Cell != serial.CPs[i].Cell || p.CPs[i].Type != serial.CPs[i].Type {
				t.Fatalf("workers=%d: cp %d differs", workers, i)
			}
		}
		if len(p.Seps) != len(serial.Seps) {
			t.Fatalf("workers=%d: %d seps, want %d", workers, len(p.Seps), len(serial.Seps))
		}
		for i := range p.Seps {
			if len(p.Seps[i].Points) != len(serial.Seps[i].Points) {
				t.Fatalf("workers=%d: sep %d length differs", workers, i)
			}
			for j := range p.Seps[i].Points {
				if p.Seps[i].Points[j] != serial.Seps[i].Points[j] {
					t.Fatalf("workers=%d: sep %d point %d differs", workers, i, j)
				}
			}
		}
	}
}

func TestCompareIdenticalIsPerfect(t *testing.T) {
	f := gyreField(17)
	par := integrate.DefaultParams()
	sk := Extract(f, par)
	st := Compare(sk, sk, math.Sqrt2)
	if st.Incorrect != 0 {
		t.Errorf("Incorrect = %d, want 0", st.Incorrect)
	}
	if st.MaxF != 0 || st.MeanF != 0 || st.StdF != 0 || st.MinF != 0 {
		t.Errorf("stats %+v, want all zero", st)
	}
	if st.Total != len(sk.Seps) {
		t.Errorf("Total = %d, want %d", st.Total, len(sk.Seps))
	}
}

func TestCompareDetectsDistortion(t *testing.T) {
	f := gyreField(17)
	par := integrate.DefaultParams()
	orig := Extract(f, par)
	g := f.Clone()
	rng := rand.New(rand.NewSource(3))
	for i := range g.U {
		g.U[i] += (rng.Float32() - 0.5) * 2
		g.V[i] += (rng.Float32() - 0.5) * 2
	}
	dec := ExtractWith(g, orig.CPs, par)
	st := Compare(orig, dec, 0.25)
	if st.Incorrect == 0 {
		t.Error("massive distortion produced zero incorrect separatrices")
	}
	if !(st.MaxF > 0) {
		t.Error("MaxF should be positive under distortion")
	}
	if st.MeanF <= 0 || st.StdF < 0 {
		t.Errorf("suspicious stats %+v", st)
	}
}

func TestCompareParallelMatchesSerial(t *testing.T) {
	f := gyreField(17)
	par := integrate.DefaultParams()
	orig := Extract(f, par)
	g := f.Clone()
	rng := rand.New(rand.NewSource(4))
	for i := range g.U {
		g.U[i] += (rng.Float32() - 0.5) * 0.3
	}
	dec := ExtractWith(g, orig.CPs, par)
	a := Compare(orig, dec, 1.0)
	b := CompareParallel(orig, dec, 1.0, 4)
	if a.Incorrect != b.Incorrect || a.Total != b.Total {
		t.Fatalf("parallel mismatch: %+v vs %+v", a, b)
	}
	for _, pair := range [][2]float64{{a.MaxF, b.MaxF}, {a.MeanF, b.MeanF}, {a.StdF, b.StdF}, {a.MinF, b.MinF}} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Fatalf("parallel stats mismatch: %+v vs %+v", a, b)
		}
	}
}

func TestCheckTrajEndpointMismatch(t *testing.T) {
	mk := func(term integrate.Termination, end int) integrate.Trajectory {
		return integrate.Trajectory{
			Points: []([3]float64){{0, 0, 0}, {1, 0, 0}},
			Term:   term,
			EndCP:  end,
		}
	}
	a := mk(integrate.AbsorbedAtCP, 0)
	b := mk(integrate.AbsorbedAtCP, 1)
	if CheckTraj(&a, &b, 10) {
		t.Error("different absorbing cps must be incorrect")
	}
	c := mk(integrate.LeftDomain, -1)
	if CheckTraj(&a, &c, 10) {
		t.Error("absorbed vs left-domain must be incorrect")
	}
	d := mk(integrate.AbsorbedAtCP, 0)
	if !CheckTraj(&a, &d, 10) {
		t.Error("identical trajectories must be correct")
	}
}

func TestCheckTrajFrechetTolerance(t *testing.T) {
	a := integrate.Trajectory{Points: []([3]float64){{0, 0, 0}, {1, 0, 0}}, Term: integrate.MaxSteps, EndCP: -1}
	b := integrate.Trajectory{Points: []([3]float64){{0, 2, 0}, {1, 2, 0}}, Term: integrate.MaxSteps, EndCP: -1}
	if CheckTraj(&a, &b, 1.5) {
		t.Error("distance 2 must fail tau 1.5")
	}
	if !CheckTraj(&a, &b, 2.5) {
		t.Error("distance 2 must pass tau 2.5")
	}
}

func TestCompareEmpty(t *testing.T) {
	st := Compare(&Skeleton{}, &Skeleton{}, 1)
	if st.Incorrect != 0 || st.Total != 0 || st.MinF != 0 {
		t.Errorf("empty compare: %+v", st)
	}
}

func TestCompareLengthMismatchCountsMissing(t *testing.T) {
	tr := integrate.Trajectory{Points: []([3]float64){{0, 0, 0}}, Term: integrate.MaxSteps, EndCP: -1}
	a := &Skeleton{Seps: []integrate.Trajectory{tr, tr, tr}}
	b := &Skeleton{Seps: []integrate.Trajectory{tr}}
	st := Compare(a, b, 1)
	if st.Incorrect != 2 {
		t.Errorf("Incorrect = %d, want 2 for two missing separatrices", st.Incorrect)
	}
}

// A ctx-free name has no error to return, so a worker panic comes back on
// the caller's goroutine as the contained *parallel.PanicError, where the
// caller can recover it, instead of killing the process from a worker.
func TestCtxFreeNameRepanicsContainedPanic(t *testing.T) {
	f := gyreField(17)
	f.U = f.U[:3] // critical-point extraction indexes past the component
	defer func() {
		err, _ := recover().(error)
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("recovered %v, want a *parallel.PanicError", err)
		}
	}()
	ExtractCPsParallel(f, 4)
	t.Fatal("extraction over a truncated component did not panic")
}
