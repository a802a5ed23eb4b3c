package integrate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tspsz/internal/critical"
	"tspsz/internal/datagen"
	"tspsz/internal/field"
	"tspsz/internal/field/fieldtest"
)

// refNear is the reference absorption probe: a scan of every bucket in
// z-y-x order with near's hit test. No hit lies outside the 27 buckets
// around p's bucket when eps < 1, so there it returns exactly what a scan
// of those 27 buckets returns.
func refNear(l *cpLocator, p [3]float64, eps float64) int {
	for _, x := range p {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return -1
		}
	}
	if !l.hasTargets {
		return -1
	}
	e2 := eps * eps
	for _, ei := range l.entries { // grouped by bucket, buckets in z-y-x order
		cp := &l.cps[ei]
		ddx := cp.Pos[0] - p[0]
		ddy := cp.Pos[1] - p[1]
		ddz := cp.Pos[2] - p[2]
		if float64(ddx*ddx)+float64(ddy*ddy)+float64(ddz*ddz) <= e2 {
			return int(ei)
		}
	}
	return -1
}

// refTrace is the reference tracer: every RK4 stage locates its point from
// scratch and appends the vertex ids of the cell it samples
// (fieldtest.RefSample), and absorption scans every bucket. The tracer is
// held to it trajectory for trajectory and, as sets, record for record.
func refTrace(f *field.Field, seed [3]float64, dir int, par Params, loc *cpLocator, verts *[]int) Trajectory {
	tr := Trajectory{EndCP: -1, Saddle: -1, SeedIdx: -1, Dir: dir, Term: MaxSteps}
	tr.Points = append(tr.Points, seed)
	s := float64(dir)
	sample := func(q [3]float64) ([3]float64, bool) {
		v, cell, ok := fieldtest.RefSample(f, q)
		if !ok {
			return v, false
		}
		*verts = f.Grid.CellVertices(cell, *verts)
		return [3]float64{v[0] * s, v[1] * s, v[2] * s}, true
	}
	p := seed
	for step := 0; step < par.MaxSteps; step++ {
		var k2, k3, k4 [3]float64
		k1, ok := sample(p)
		if ok {
			k2, ok = sample(add(p, scale(k1, par.H/2)))
		}
		if ok {
			k3, ok = sample(add(p, scale(k2, par.H/2)))
		}
		if ok {
			k4, ok = sample(add(p, scale(k3, par.H)))
		}
		if !ok {
			tr.Term = LeftDomain
			return tr
		}
		var np [3]float64
		for d := 0; d < 3; d++ {
			np[d] = p[d] + float64(par.H/6*(k1[d]+float64(2*k2[d])+float64(2*k3[d])+k4[d]))
		}
		tr.Points = append(tr.Points, np)
		if cp := refNear(loc, np, par.EpsP); cp >= 0 {
			tr.Term = AbsorbedAtCP
			tr.EndCP = cp
			return tr
		}
		dx, dy, dz := np[0]-p[0], np[1]-p[1], np[2]-p[2]
		if float64(dx*dx)+float64(dy*dy)+float64(dz*dz) < 1e-24 {
			tr.Term = ZeroVelocity
			return tr
		}
		p = np
	}
	return tr
}

func vertexSet(verts []int) []int {
	s := slices.Clone(verts)
	slices.Sort(s)
	return slices.Compact(s)
}

// sameTrajectory compares two trajectories' points bit for bit, so a −0
// that became +0 differs, except that any NaN equals any NaN (Go leaves a
// NaN's sign and payload to the hardware).
func sameTrajectory(a, b *Trajectory) bool {
	if a.Term != b.Term || a.EndCP != b.EndCP || len(a.Points) != len(b.Points) {
		return false
	}
	for i, p := range a.Points {
		for d, x := range p {
			y := b.Points[i][d]
			if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
				return false
			}
		}
	}
	return true
}

// cellularFlow is a 2D field of counter-rotating gyres with a small
// perturbation that turns their centres into foci, so separatrices run
// from saddles into sinks, out of sources and along the walls.
func cellularFlow(nx, ny int) *field.Field {
	f := field.New2D(nx, ny)
	fill2D(f, func(x, y float64) (float64, float64) {
		a, b := math.Pi*x/7.5, math.Pi*y/6.5
		return -math.Sin(a)*math.Cos(b) - 0.08*math.Cos(a)*math.Sin(b),
			math.Cos(a)*math.Sin(b) - 0.08*math.Sin(a)*math.Cos(b)
	})
	return f
}

// nekWindow cuts the n³ window at offset (2, 2, 2) out of an 18³ Nek5000
// field, the field the nek3d-1 benchmark windows come from.
func nekWindow(n int) *field.Field {
	src := datagen.Nek5000(18)
	f := field.New3D(n, n, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				from := src.Grid.VertexIndex(i+2, j+2, k+2)
				to := f.Grid.VertexIndex(i, j, k)
				f.U[to], f.V[to], f.W[to] = src.U[from], src.V[from], src.W[from]
			}
		}
	}
	return f
}

type traceCase struct {
	name string
	f    *field.Field
	par  Params
}

// separatrixCases are the fields whose separatrices the tracer is held to
// the reference on: a 2D gyre, ocean and hurricane, and an 8³ Nek5000
// window, at ε_p = 1e-2; and, at ε_p = 0, −1e-2, 1 and 1.8, a slow spiral
// sink that absorbs a separatrix after hundreds of steps and a source that
// a separatrix passes as near as it can without being absorbed (see
// grazedSource). At ε_p = 0 every seed sits on its saddle; at |ε_p| ≥ 1
// the tracer probes at every step.
func separatrixCases(t *testing.T) []traceCase {
	ocean, err := datagen.ByName("ocean", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	hurricane, err := datagen.ByName("hurricane", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	cases := []traceCase{
		{"gyre", cellularFlow(48, 40), Params{EpsP: 1e-2, MaxSteps: 1000, H: 0.05}},
		{"ocean", ocean, Params{EpsP: 1e-2, MaxSteps: 1000, H: 2.5e-2}},
		{"hurricane", hurricane, Params{EpsP: 1e-2, MaxSteps: 1000, H: 5e-2}},
		{"nek5000-window", nekWindow(8), Params{EpsP: 1e-2, MaxSteps: 400, H: 2.5e-2}},
	}
	for _, eps := range []float64{0, -1e-2, 1, 1.8} {
		par := Params{EpsP: eps, MaxSteps: 1000, H: 0.05}
		cases = append(cases,
			traceCase{fmt.Sprintf("spiral-sink/eps=%v", eps), spiralSink(), par},
			traceCase{fmt.Sprintf("grazed-source/eps=%v", eps), grazedSource(t, par), par})
	}
	return cases
}

// spiralSink is a 2D field with a saddle near (6.3, 10.4) whose unstable
// separatrix runs right into a sink near (16.35, 10.4) that it circles
// slowly, for about 660 steps at ε_p = 1e-2 and h = 0.05.
func spiralSink() *field.Field {
	const xs, xk, yc = 6.3, 16.35, 10.4
	f := field.New2D(24, 20)
	fill2D(f, func(x, y float64) (float64, float64) {
		w := (x - xs) / 10
		w *= w
		return -0.05*(x-xs)*(x-xk) - w*(y-yc), -0.1*(y-yc) + w*(x-xk)
	})
	return f
}

// sourceField is a saddle at (6.3, 8.4) whose stable separatrix, traced
// backward, runs up the line x = 6.3 past a source at (6.3+off, 14.45).
func sourceField(off float64) *field.Field {
	const sx, sy, cy = 6.3, 8.4, 14.45
	cx := sx + off
	f := field.New2D(16, 20)
	fill2D(f, func(x, y float64) (float64, float64) {
		phi := math.Exp(-((x-cx)*(x-cx) + (y-cy)*(y-cy)))
		return 0.5*(x-sx)*(1-phi) + 5*(x-cx)*phi, -0.5*(y-sy)*(1-phi) + 5*(y-cy)*phi
	})
	return f
}

// grazedOffset holds, for each nonzero ε_p of separatrixCases, the source
// offset at which the saddle's separatrices pass the source as near as the
// reference tracer lets them without being absorbed: the least offset,
// bisected to the last bit between 0 (absorbed) and 4 (not), at which refTrace
// absorbs none of them.
var grazedOffset = map[float64]float64{
	-1e-2: 1.5105402075523775,
	1:     1.722316856625799,
	1.8:   2.106271117747852,
}

// grazedSource returns the sourceField at grazedOffset. For |ε_p| ≥ 1 the
// ε_p-ball is wider than the stagnation saddle beside the source, so a
// separatrix passes within one step of |ε_p|. A smaller ball lies inside the
// source's backward basin, whose edge runs through that saddle: there the
// separatrix passes the source no nearer than the saddle, about 0.19 away.
// At ε_p = 0 no separatrix leaves its saddle, and it returns the field at
// offset 2.
func grazedSource(t *testing.T, par Params) *field.Field {
	if par.EpsP == 0 {
		return sourceField(2)
	}
	off, ok := grazedOffset[par.EpsP]
	if !ok {
		t.Fatalf("setup: no grazed offset for eps %v", par.EpsP)
	}
	r := math.Abs(par.EpsP)
	f := sourceField(off)
	cps := critical.Extract(f)
	loc := newCPLocator(cps)
	// Trace the separatrices of the saddle at (6.3, 8.4); find the least
	// gap, beyond r, between a source and a point, and whether a point is
	// no more than one step past r from a source.
	gap, withinStep := math.Inf(1), false
	for _, cp := range cps {
		if cp.Type != critical.Saddle || math.Hypot(cp.Pos[0]-6.3, cp.Pos[1]-8.4) > 0.5 {
			continue // the saddle beside the source is not the one grazing it
		}
		seeds, dirs, _ := SeparatrixSeeds(cp, par.EpsP)
		for si := range seeds {
			var verts []int
			tr := refTrace(f, seeds[si], dirs[si], par, loc, &verts)
			if tr.Term == AbsorbedAtCP && cps[tr.EndCP].Type == critical.Source {
				t.Fatalf("setup: eps %v, offset %v: a separatrix is absorbed by the source", par.EpsP, off)
			}
			for i := 1; i < len(tr.Points); i++ {
				p, q := tr.Points[i], tr.Points[i-1]
				for _, c := range cps {
					if c.Type != critical.Source {
						continue
					}
					g := math.Hypot(p[0]-c.Pos[0], p[1]-c.Pos[1]) - r
					gap = min(gap, g)
					if g > 0 && g <= math.Hypot(p[0]-q[0], p[1]-q[1]) {
						withinStep = true
					}
				}
			}
		}
	}
	if r >= 1 && !withinStep || r < 1 && !(gap < 0.25) {
		t.Fatalf("setup: eps %v, offset %v: separatrices pass the source %v beyond eps (within a step: %v)",
			par.EpsP, off, gap, withinStep)
	}
	return f
}

// Recording each cell once per entry keeps the set of every-stage
// recording: for every separatrix, and for every prefix-limited retrace the
// corrector runs, the trajectory is the reference's and the recorded
// vertex set is the reference's.
func TestRecordedSetMatchesEveryStageRecording(t *testing.T) {
	for _, tc := range separatrixCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cps := critical.Extract(tc.f)
			loc := newCPLocator(cps)
			var all []int
			trs := TraceSeparatrices(tc.f, cps, tc.par, &all)
			if len(trs) == 0 {
				t.Fatal("setup: no separatrices")
			}
			var refAll []int
			i := 0
			for ci, cp := range cps {
				if cp.Type != critical.Saddle {
					continue
				}
				seeds, dirs, _ := SeparatrixSeeds(cp, tc.par.EpsP)
				for si := range seeds {
					var want []int
					ref := refTrace(tc.f, seeds[si], dirs[si], tc.par, loc, &want)
					if !sameTrajectory(&trs[i], &ref) {
						t.Fatalf("saddle %d seed %d: trajectory differs from the reference (%v after %d points, want %v after %d)",
							ci, si, trs[i].Term, len(trs[i].Points), ref.Term, len(ref.Points))
					}
					refAll = append(refAll, want...)
					// The corrector retraces prefixes of growing length.
					if i%3 == 0 {
						for _, prefix := range []int{1, 7, 32, 256} {
							par := tc.par
							par.MaxSteps = prefix
							var got, want []int
							Retrace(tc.f, cps, (*CPLocator)(loc), &trs[i], par, &got)
							refTrace(tc.f, seeds[si], dirs[si], par, loc, &want)
							if !slices.Equal(vertexSet(got), vertexSet(want)) {
								t.Fatalf("saddle %d seed %d, %d-step prefix: recorded %d distinct vertices, want %d",
									ci, si, prefix, len(vertexSet(got)), len(vertexSet(want)))
							}
						}
					}
					i++
				}
			}
			if got, want := vertexSet(all), vertexSet(refAll); !slices.Equal(got, want) {
				t.Fatalf("recorded %d distinct vertices, want %d", len(got), len(want))
			}
			t.Logf("%d separatrices: %d ids recorded, %d with every-stage recording, %d distinct",
				len(trs), len(all), len(refAll), len(vertexSet(all)))
		})
	}
}

// A record-only trace is the point-keeping trace without its points: for
// every separatrix of the reference cases, and for RecordRetrace against
// Retrace over the prefixes the corrector retraces, it records the same
// vertex list in the same order and ends with the same Term and EndCP, and
// RecordSeparatricesOf over every saddle records what TraceSeparatrices
// does.
func TestRecordOnlyMatchesPointTrace(t *testing.T) {
	for _, tc := range separatrixCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cps := critical.Extract(tc.f)
			loc := newCPLocator(cps)
			n := 0
			for ci, cp := range cps {
				if cp.Type != critical.Saddle {
					continue
				}
				seeds, dirs, _ := SeparatrixSeeds(cp, tc.par.EpsP)
				for si := range seeds {
					var kept, recorded []int
					want := streamline(tc.f, seeds[si], dirs[si], tc.par, loc, &kept, true)
					got := streamline(tc.f, seeds[si], dirs[si], tc.par, loc, &recorded, false)
					if got.Points != nil {
						t.Fatalf("saddle %d seed %d: record-only trace kept %d points", ci, si, len(got.Points))
					}
					if got.Term != want.Term || got.EndCP != want.EndCP {
						t.Fatalf("saddle %d seed %d: record-only trace ends %v at %d, point trace %v at %d",
							ci, si, got.Term, got.EndCP, want.Term, want.EndCP)
					}
					if !slices.Equal(recorded, kept) {
						t.Fatalf("saddle %d seed %d: record-only trace recorded %d ids, point trace %d (or another order)",
							ci, si, len(recorded), len(kept))
					}
					n++
				}
			}
			if n == 0 {
				t.Fatal("setup: no separatrices")
			}
			trs := TraceSeparatrices(tc.f, cps, tc.par, nil)
			for i := range trs {
				for _, prefix := range []int{1, 7, 32, 256} {
					par := tc.par
					par.MaxSteps = prefix
					var kept, recorded []int
					want := Retrace(tc.f, cps, (*CPLocator)(loc), &trs[i], par, &kept)
					got := RecordRetrace(tc.f, cps, (*CPLocator)(loc), &trs[i], par, &recorded)
					if got.Points != nil {
						t.Fatalf("separatrix %d, %d-step prefix: record-only retrace kept %d points", i, prefix, len(got.Points))
					}
					if got.Term != want.Term || got.EndCP != want.EndCP || got.Saddle != want.Saddle || got.SeedIdx != want.SeedIdx {
						t.Fatalf("separatrix %d, %d-step prefix: record-only retrace ends %v at %d, point retrace %v at %d",
							i, prefix, got.Term, got.EndCP, want.Term, want.EndCP)
					}
					if !slices.Equal(recorded, kept) {
						t.Fatalf("separatrix %d, %d-step prefix: record-only retrace recorded %d ids, point retrace %d (or another order)",
							i, prefix, len(recorded), len(kept))
					}
				}
			}
			var want, got []int
			TraceSeparatrices(tc.f, cps, tc.par, &want)
			for ci := range cps {
				RecordSeparatricesOf(tc.f, cps, (*CPLocator)(loc), ci, tc.par, &got)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("RecordSeparatricesOf recorded %d ids, TraceSeparatrices %d (or another order)", len(got), len(want))
			}
		})
	}
}

// Streamlines seeded on −0 coordinates, over fields holding −0 components,
// match the reference bit for bit, the sign of each zero included, and the
// record-only trace matches them. A sample's sums start at +0, so its zeros
// are +0; backward tracing scales them by −1 to −0, and a coordinate that
// starts at −0 then stays −0 along the whole trajectory. An operation that
// adds zero to a stage vector or a point turns it into +0.
func TestTraceMatchesReferenceAtNegativeZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	// shear flows along y at a speed that varies with x; its u is −0.
	shear := field.New2D(12, 10)
	fill2D(shear, func(x, y float64) (float64, float64) { return 0, 0.3 + 0.05*x })
	for i := range shear.U {
		shear.U[i] = negZero
	}
	// planar is the Nek5000 window with W = −0: every trajectory stays in
	// its z-plane.
	planar := nekWindow(8)
	for i := range planar.W {
		planar.W[i] = negZero
	}
	z := math.Copysign(0, -1)
	cases := []struct {
		name  string
		f     *field.Field
		seeds [][3]float64
	}{
		{"gyre", cellularFlow(48, 40), [][3]float64{{z, 3.3, 0}, {7.5, z, 0}, {z, z, z}, {12.25, 20.5, z}}},
		{"shear", shear, [][3]float64{{z, 1.5, 0}, {z, 4.75, z}, {3.5, z, 0}, {11, 2, z}}},
		{"nek5000-planar", planar, [][3]float64{{3.3, 2.2, z}, {z, 4.1, z}, {2.5, z, 3}, {z, z, z}, {6.5, 1.5, 7}}},
		{"nek5000-window", nekWindow(8), [][3]float64{{z, 3.5, 2.5}, {4.2, z, 1.1}, {2.6, 5.3, z}}},
	}
	par := Params{EpsP: 1e-2, MaxSteps: 300, H: 5e-2}
	negZeros := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cps := critical.Extract(tc.f)
			loc := newCPLocator(cps)
			steps := 0
			for _, seed := range tc.seeds {
				for _, dir := range []int{1, -1} {
					var want, kept, recorded []int
					ref := refTrace(tc.f, seed, dir, par, loc, &want)
					tr := streamline(tc.f, seed, dir, par, loc, &kept, true)
					if !sameTrajectory(&tr, &ref) {
						t.Fatalf("seed %v dir %d: trajectory differs from the reference (%v after %d points, want %v after %d)",
							seed, dir, tr.Term, len(tr.Points), ref.Term, len(ref.Points))
					}
					steps += len(ref.Points) - 1
					negZeros += negZerosAfterSeed(&ref)
					if !slices.Equal(vertexSet(kept), vertexSet(want)) {
						t.Fatalf("seed %v dir %d: recorded %d distinct vertices, want %d",
							seed, dir, len(vertexSet(kept)), len(vertexSet(want)))
					}
					rec := streamline(tc.f, seed, dir, par, loc, &recorded, false)
					if rec.Term != tr.Term || rec.EndCP != tr.EndCP || !slices.Equal(recorded, kept) {
						t.Fatalf("seed %v dir %d: record-only trace differs from the point trace", seed, dir)
					}
				}
			}
			if steps == 0 {
				t.Error("setup: no seed took a step")
			}
		})
	}
	if negZeros == 0 {
		t.Error("setup: no trajectory kept a −0 coordinate past its seed")
	}
}

// negZerosAfterSeed counts the −0 coordinates of tr's points after its seed.
func negZerosAfterSeed(tr *Trajectory) int {
	n := 0
	for _, p := range tr.Points[1:] {
		for _, x := range p {
			if x == 0 && math.Signbit(x) {
				n++
			}
		}
	}
	return n
}

// nearCases are the locators the absorption probe is held to the full scan
// on: random sinks, sources and saddles in 3D and in a plane, and sinks
// and sources on integer coordinates, where every bucket face is a tie.
func nearCases(rng *rand.Rand) []struct {
	name string
	cps  []critical.Point
} {
	types := []critical.Type{critical.Sink, critical.Source, critical.Saddle}
	random := func(n int, planar bool) []critical.Point {
		cps := make([]critical.Point, n)
		for i := range cps {
			cps[i].Type = types[rng.Intn(len(types))]
			for d := 0; d < 3; d++ {
				cps[i].Pos[d] = rng.Float64() * 12
			}
			if planar {
				cps[i].Pos[2] = 0
			}
		}
		return cps
	}
	integer := make([]critical.Point, 40)
	for i := range integer {
		integer[i].Type = types[i%2]
		for d := 0; d < 3; d++ {
			integer[i].Pos[d] = float64(rng.Intn(6) + 2)
		}
	}
	return []struct {
		name string
		cps  []critical.Point
	}{
		{"random3d", random(60, false)},
		{"random2d", random(40, true)},
		{"integer", integer},
		{"single", []critical.Point{{Type: critical.Sink, Pos: [3]float64{5.5, 5.5, 0}}}},
	}
}

var nearEps = []float64{0, 1e-3, 1e-2, 0.5, 0.999, 1, 1.8, 5}

// nearProbes returns points that stress the bucket range of loc at eps:
// random points in and around the grid, points at distance eps (and one
// ulp either side) from bucket faces, critical points themselves, the
// grid's border, and non-finite coordinates.
func nearProbes(rng *rand.Rand, l *cpLocator, eps float64) [][3]float64 {
	var ps [][3]float64
	for n := 0; n < 200; n++ {
		ps = append(ps, [3]float64{rng.Float64()*18 - 3, rng.Float64()*18 - 3, rng.Float64()*18 - 3})
	}
	for n := 0; n < 200; n++ {
		p := l.cps[rng.Intn(len(l.cps))].Pos
		d := rng.Intn(3)
		face := math.Floor(p[d]) + float64(rng.Intn(3)-1)
		x := face + eps
		if rng.Intn(2) == 0 {
			x = face - eps
		}
		switch rng.Intn(3) {
		case 1:
			x = math.Nextafter(x, math.Inf(1))
		case 2:
			x = math.Nextafter(x, math.Inf(-1))
		}
		p[d] = x
		ps = append(ps, p)
	}
	for _, cp := range l.cps {
		ps = append(ps, cp.Pos)
	}
	for d := 0; d < 3; d++ {
		for _, x := range []float64{
			float64(l.lo[d]), float64(l.lo[d] + l.dim[d]),
			float64(l.lo[d]) - eps, float64(l.lo[d]+l.dim[d]) + eps,
			-1e300, 1e300,
		} {
			p := l.cps[rng.Intn(len(l.cps))].Pos
			p[d] = x
			ps = append(ps, p)
		}
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := l.cps[0].Pos
			p[d] = x
			ps = append(ps, p)
		}
	}
	return ps
}

// The narrowed probe returns the full scan's first hit for every eps,
// including eps ≥ 1, where a 27-bucket neighbourhood is too small.
func TestNearMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, tc := range nearCases(rng) {
		name, l := tc.name, newCPLocator(tc.cps)
		for _, eps := range nearEps {
			hits := 0
			for _, p := range nearProbes(rng, l, eps) {
				got, want := l.near(p[0], p[1], p[2], eps), refNear(l, p, eps)
				if got != want {
					t.Fatalf("%s: near(%v, %v) = %d, want %d", name, p, eps, got, want)
				}
				if got >= 0 {
					hits++
				}
			}
			if hits == 0 {
				t.Errorf("%s, eps %v: no probe hit a critical point", name, eps)
			}
		}
	}
}

// Params.EpsP promises absorption within EpsP for any EpsP; a 27-bucket
// neighbourhood missed a sink 1.7 away at EpsP = 1.8.
func TestNearBeyondUnitEps(t *testing.T) {
	l := newCPLocator([]critical.Point{{Type: critical.Sink, Pos: [3]float64{5.5, 5.5, 0}}})
	if got := l.near(7.2, 5.5, 0, 1.8); got != 0 {
		t.Fatalf("near = %d, want the sink 1.7 away (0)", got)
	}
	if got := l.near(7.2, 5.5, 0, 1.6); got != -1 {
		t.Fatalf("near = %d, want -1 for eps below the distance", got)
	}
}

// FuzzNear holds the narrowed probe to the full scan over fuzzed points,
// radii and three critical points of fuzzed type.
func FuzzNear(f *testing.F) {
	f.Add(7.2, 5.5, 0.0, 1.8, 5.5, 5.5, 0.0, 1.0, 1.0, 1.0, 3.0, 4.0, 0.0, uint8(0))
	f.Add(3.0, 3.01, 0.0, 1e-2, 3.0, 3.0, 0.0, 2.0, 2.0, 0.0, 4.0, 4.0, 0.0, uint8(5))
	f.Add(math.NaN(), 1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, uint8(9))
	f.Add(2.5, 2.5, 2.5, 5.0, 0.0, 0.0, 0.0, 6.0, 6.0, 6.0, 2.5, 2.5, 7.5, uint8(18))
	f.Fuzz(func(t *testing.T, px, py, pz, eps, ax, ay, az, bx, by, bz, cx, cy, cz float64, types uint8) {
		pos := [][3]float64{{ax, ay, az}, {bx, by, bz}, {cx, cy, cz}}
		cps := make([]critical.Point, len(pos))
		kinds := []critical.Type{critical.Sink, critical.Source, critical.Saddle}
		for i, q := range pos {
			for _, x := range q {
				if !(math.Abs(x) <= 64) { // keeps the bucket grid small; rejects NaN
					t.Skip()
				}
			}
			cps[i] = critical.Point{Type: kinds[int(types>>(2*i))%3], Pos: q}
		}
		l := newCPLocator(cps)
		p := [3]float64{px, py, pz}
		if got, want := l.near(p[0], p[1], p[2], eps), refNear(l, p, eps); got != want {
			t.Fatalf("near(%v, %v) = %d, want %d", p, eps, got, want)
		}
	})
}

// A streamline that samples a cell with a NaN vertex steps onto a NaN
// point, which lies outside the domain: the trace ends there instead of
// stepping on NaN points until its budget runs out.
func TestNaNColumnEndsLeftDomain(t *testing.T) {
	f := field.New2D(12, 6)
	fill2D(f, func(x, y float64) (float64, float64) { return 1, 0 })
	for j := 0; j < 6; j++ {
		f.U[f.Grid.VertexIndex(6, j, 0)] = float32(math.NaN())
	}
	par := DefaultParams()
	var verts []int
	tr := TraceStreamline(f, [3]float64{1, 2.5, 0}, 1, par, nil, &verts)
	if tr.Term != LeftDomain {
		t.Fatalf("termination %v after %d points, want left-domain", tr.Term, len(tr.Points))
	}
	// From x = 1 to the column at x = 6 at speed 1 is 100 steps of h = 0.05.
	if n := len(tr.Points); n > 101 {
		t.Fatalf("trace ran %d points past the NaN column", n)
	}
	// The squares it can sample, 1 to 5 of row 2, have 12 vertices.
	if n := len(vertexSet(verts)); n > 12 {
		t.Fatalf("recorded %d distinct vertices, want at most 12", n)
	}
}
