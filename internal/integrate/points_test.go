package integrate

import (
	"fmt"
	"math"
	"testing"

	"tspsz/internal/critical"
	"tspsz/internal/field"
	"tspsz/internal/frechet"
)

// rotation is a pure rotation about (8, 8): its streamlines circle until
// the step budget runs out.
func rotation() *field.Field {
	f := field.New2D(17, 17)
	fill2D(f, func(x, y float64) (float64, float64) { return -(y - 8), x - 8 })
	return f
}

// A point-keeping trace allocates a fixed number of times however many
// steps it takes: it appends into a pooled buffer and returns one copy.
// Growing Points by append would cost about log₂ n allocations.
func TestLongPointTraceAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	f := rotation()
	loc := NewCPLocator(nil)
	allocs := func(steps int) float64 {
		par := Params{EpsP: 1e-2, MaxSteps: steps, H: 0.05}
		tr := Streamline(f, [3]float64{11, 8, 0}, 1, par, loc, nil)
		if len(tr.Points) != steps+1 {
			t.Fatalf("setup: trace of budget %d kept %d points, want %d", steps, len(tr.Points), steps+1)
		}
		return testing.AllocsPerRun(20, func() { Streamline(f, [3]float64{11, 8, 0}, 1, par, loc, nil) })
	}
	short, long := allocs(16), allocs(50_000)
	if long != short || long > 1 {
		t.Fatalf("a 16-step trace allocates %.1f times, a 50000-step one %.1f: want the same, at most 1", short, long)
	}
}

// Returned trajectories own their points: no two share a backing array,
// and each holds exactly its points.
func TestTrajectoriesDoNotSharePoints(t *testing.T) {
	f := rotation()
	loc := NewCPLocator(nil)
	par := Params{EpsP: 1e-2, MaxSteps: 300, H: 0.05}
	a := Streamline(f, [3]float64{11, 8, 0}, 1, par, loc, nil)
	b := Streamline(f, [3]float64{10, 8, 0}, 1, par, loc, nil)
	trs := TraceSeparatrices(f, nil, par, nil)
	if len(a.Points) != par.MaxSteps+1 || len(b.Points) != par.MaxSteps+1 || len(trs) != 0 {
		t.Fatalf("setup: %d and %d points, %d separatrices", len(a.Points), len(b.Points), len(trs))
	}
	if cap(a.Points) != len(a.Points) || cap(b.Points) != len(b.Points) {
		t.Fatalf("capacities %d and %d, want the lengths %d and %d", cap(a.Points), cap(b.Points), len(a.Points), len(b.Points))
	}
	if &a.Points[0] == &b.Points[0] {
		t.Fatal("two trajectories share a backing array")
	}
	want := b.Points[len(b.Points)-1]
	for i := range a.Points {
		a.Points[i] = frechet.Point{-1, -1, -1}
	}
	if b.Points[len(b.Points)-1] != want {
		t.Fatal("writing one trajectory's points changed another's")
	}
	c := Streamline(f, [3]float64{11, 8, 0}, 1, par, loc, nil)
	if c.Points[0] != (frechet.Point{11, 8, 0}) {
		t.Fatal("a later trace sees an earlier trajectory's writes")
	}
}

// A record-only trace ends where the point-keeping trace does: its End is
// bit for bit the last of the points, on every termination path, and so
// is the point-keeping trace's own End.
func TestRecordOnlyEndIsLastPoint(t *testing.T) {
	sink := field.New2D(11, 11)
	fill2D(sink, func(x, y float64) (float64, float64) { return -(x - 5.3), -(y - 5.2) })
	uniform := field.New2D(8, 8)
	fill2D(uniform, func(x, y float64) (float64, float64) { return 1, 0 })
	still := field.New2D(6, 6)
	fill2D(still, func(x, y float64) (float64, float64) { return 0, 0 })
	type path struct {
		name string
		f    *field.Field
		cps  []critical.Point
		seed [3]float64
		dir  int
		par  Params
		want Termination
	}
	paths := []path{
		{"absorbed", sink, critical.Extract(sink), [3]float64{2, 2, 0}, 1, Params{EpsP: 1e-3, MaxSteps: 5000, H: 0.1}, AbsorbedAtCP},
		{"left-domain", uniform, nil, [3]float64{1, 3.5, 0}, 1, DefaultParams(), LeftDomain},
		{"left-domain-at-once", uniform, nil, [3]float64{6.99, 3.5, 0}, 1, Params{EpsP: 1e-3, MaxSteps: 10, H: 1}, LeftDomain},
		{"zero-velocity", still, nil, [3]float64{2.5, 2.5, 0}, 1, DefaultParams(), ZeroVelocity},
		{"closed-orbit", rotation(), nil, [3]float64{11, 8, 0}, 1, Params{EpsP: 1e-2, MaxSteps: 10000, H: 0.05, DetectOrbits: true}, ClosedOrbit},
		{"max-steps", rotation(), nil, [3]float64{11, 8, 0}, 1, Params{EpsP: 1e-2, MaxSteps: 77, H: 0.05}, MaxSteps},
		{"no-steps", rotation(), nil, [3]float64{11, 8, 0}, 1, Params{EpsP: 1e-2, MaxSteps: 0, H: 0.05}, MaxSteps},
	}
	for _, tc := range separatrixCases(t) {
		cps := critical.Extract(tc.f)
		for ci, cp := range cps {
			if cp.Type != critical.Saddle {
				continue
			}
			seeds, dirs, _ := SeparatrixSeeds(cp, tc.par.EpsP)
			for si := range seeds {
				paths = append(paths, path{fmt.Sprintf("%s/saddle%d/seed%d", tc.name, ci, si), tc.f, cps, seeds[si], dirs[si], tc.par, -1})
			}
		}
	}
	seen := map[Termination]bool{}
	for _, p := range paths {
		loc := NewCPLocator(p.cps)
		kept := Streamline(p.f, p.seed, p.dir, p.par, loc, nil)
		got := RecordStreamline(p.f, p.seed, p.dir, p.par, loc, nil)
		if p.want >= 0 && kept.Term != p.want {
			t.Fatalf("%s: setup: trace ends %v, want %v", p.name, kept.Term, p.want)
		}
		seen[kept.Term] = true
		last := kept.Points[len(kept.Points)-1]
		if got.Points != nil || got.Term != kept.Term || got.EndCP != kept.EndCP {
			t.Fatalf("%s: record-only trace ends %v at %d with %d points, point trace %v at %d",
				p.name, got.Term, got.EndCP, len(got.Points), kept.Term, kept.EndCP)
		}
		for d := range 3 {
			if math.Float64bits(got.End[d]) != math.Float64bits(last[d]) || math.Float64bits(kept.End[d]) != math.Float64bits(last[d]) {
				t.Fatalf("%s (%v): record-only End %v, point trace End %v, last point %v", p.name, kept.Term, got.End, kept.End, last)
			}
		}
	}
	for _, term := range []Termination{AbsorbedAtCP, LeftDomain, ZeroVelocity, ClosedOrbit, MaxSteps} {
		if !seen[term] {
			t.Fatalf("no path ended %v", term)
		}
	}
}
