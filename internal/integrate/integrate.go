// Package integrate implements streamline tracing over piecewise-linear
// vector fields with the classical fourth-order Runge–Kutta scheme (Eq. 1 of
// the paper), and separatrix construction from saddle points (§III-B, §V).
// Trajectories optionally record every vertex whose value participated in
// any RK4 interpolation — the "involved vertices" that TspSZ-I encodes
// losslessly. A trajectory records a cell's vertices each time one of its
// RK4 stages samples a cell other than the one it recorded last, so the
// record is a list whose set is exactly the vertices of every cell sampled.
// A trace keeps its points (TraceSeparatrices, Streamline, Retrace) or
// only records (RecordSeparatricesOf, for TspSZ-I, which reads nothing
// but the involved vertices); both run the one RK4 loop, so they record
// the same list and end the same way. Each streamline samples through its
// own field.Sampler, passing points and stage vectors as scalars so that
// they stay in registers. Every product in this package is written
// float64(a*b), the Go spec's barrier against fusing it into a
// multiply-add, so traces round the same on every platform (make
// fma-check holds it).
package integrate

import (
	"math"

	"tspsz/internal/critical"
	"tspsz/internal/field"
	"tspsz/internal/frechet"
	"tspsz/internal/grid"
)

// Params are the user-facing integration parameters of Table II.
type Params struct {
	// EpsP is the absorption threshold: a streamline terminates when it
	// comes within EpsP of a sink or source, for any EpsP ≥ 0. The same
	// value scales the seed offset from a saddle.
	EpsP float64
	// MaxSteps bounds the number of RK4 steps (t in the paper).
	MaxSteps int
	// H is the RK4 step size.
	H float64
	// DetectOrbits enables closed-orbit detection: trajectories that
	// return within OrbitEps of a position visited at least OrbitMinSep
	// steps earlier terminate with ClosedOrbit instead of running to the
	// step budget (extension; the paper handles orbits by capping t).
	DetectOrbits bool
	// OrbitEps is the revisit radius (defaults to EpsP when zero).
	OrbitEps float64
	// OrbitMinSep is the minimum step separation for a revisit to count
	// as a loop (defaults to 20 when zero).
	OrbitMinSep int
}

// DefaultParams returns the paper's defaults (Table II): ε_p = 1e-3,
// t = 1000, h = 0.05.
func DefaultParams() Params {
	return Params{EpsP: 1e-3, MaxSteps: 1000, H: 0.05}
}

// Termination describes why a trajectory ended.
type Termination int

const (
	// MaxSteps: the step budget was exhausted (closed orbits etc.).
	MaxSteps Termination = iota
	// AbsorbedAtCP: the trajectory came within EpsP of a sink/source.
	AbsorbedAtCP
	// LeftDomain: an RK4 stage sampled outside the grid.
	LeftDomain
	// ZeroVelocity: the velocity magnitude vanished away from any
	// recorded critical point (e.g. re-entering a saddle).
	ZeroVelocity
	// ClosedOrbit: the trajectory revisited its own path (only reported
	// when Params.DetectOrbits is set).
	ClosedOrbit
)

// String implements fmt.Stringer.
func (t Termination) String() string {
	switch t {
	case AbsorbedAtCP:
		return "absorbed"
	case LeftDomain:
		return "left-domain"
	case ZeroVelocity:
		return "zero-velocity"
	case ClosedOrbit:
		return "closed-orbit"
	default:
		return "max-steps"
	}
}

// Trajectory is one traced streamline.
type Trajectory struct {
	Points []frechet.Point
	Term   Termination
	// EndCP is the index (into the critical point slice passed to the
	// tracer) of the absorbing critical point, or -1.
	EndCP int
	// Saddle is the index of the originating saddle for separatrices
	// (-1 for plain streamlines), SeedIdx the seed slot within it.
	Saddle, SeedIdx int
	// Dir is +1 for forward integration, -1 for backward.
	Dir int
}

// cpLocator answers nearest sink/source queries via a dense unit-cell
// bucket grid in CSR layout (an array lookup per probe — map hashing was
// the hot spot of RK4 tracing). Only sinks and sources absorb
// trajectories; the grid spans the unit cells of their bounding box.
type cpLocator struct {
	cps        []critical.Point
	lo         [3]int
	dim        [3]int
	start      []int32 // CSR offsets, len dim[0]*dim[1]*dim[2]+1
	entries    []int32 // cp indices grouped by bucket
	hasTargets bool
}

func newCPLocator(cps []critical.Point) *cpLocator {
	l := &cpLocator{cps: cps}
	lo := [3]int{math.MaxInt32, math.MaxInt32, math.MaxInt32}
	hi := [3]int{math.MinInt32, math.MinInt32, math.MinInt32}
	n := 0
	for _, cp := range cps {
		if cp.Type != critical.Sink && cp.Type != critical.Source {
			continue
		}
		n++
		for d := 0; d < 3; d++ {
			c := int(math.Floor(cp.Pos[d]))
			if c < lo[d] {
				lo[d] = c
			}
			if c > hi[d] {
				hi[d] = c
			}
		}
	}
	if n == 0 {
		return l
	}
	l.hasTargets = true
	l.lo = lo
	for d := 0; d < 3; d++ {
		l.dim[d] = hi[d] - lo[d] + 1
	}
	nb := l.dim[0] * l.dim[1] * l.dim[2]
	counts := make([]int32, nb+1)
	bucketOf := func(cp *critical.Point) int {
		i := int(math.Floor(cp.Pos[0])) - l.lo[0]
		j := int(math.Floor(cp.Pos[1])) - l.lo[1]
		k := int(math.Floor(cp.Pos[2])) - l.lo[2]
		return i + l.dim[0]*(j+l.dim[1]*k)
	}
	for i := range cps {
		cp := &cps[i]
		if cp.Type != critical.Sink && cp.Type != critical.Source {
			continue
		}
		counts[bucketOf(cp)+1]++
	}
	for b := 1; b <= nb; b++ {
		counts[b] += counts[b-1]
	}
	l.start = counts
	l.entries = make([]int32, n)
	fill := make([]int32, nb)
	for i := range cps {
		cp := &cps[i]
		if cp.Type != critical.Sink && cp.Type != critical.Source {
			continue
		}
		b := bucketOf(cp)
		l.entries[l.start[b]+fill[b]] = int32(i)
		fill[b]++
	}
	return l
}

// near returns the index of a sink/source within eps of p, or -1. It scans,
// in z-y-x order, only the buckets that the ball's bounding box
// [⌊p−eps⌋, ⌊p+eps⌋] overlaps, clamped to the bucket grid (see span), so
// for any eps it returns the first hit of a scan over every bucket. A
// point with a NaN or infinite coordinate is never absorbed.
func (l *cpLocator) near(p [3]float64, eps float64) int {
	if !l.hasTargets {
		return -1
	}
	e2 := eps * eps
	var lo, hi [3]int
	for d := 0; d < 3; d++ {
		if math.IsNaN(p[d]) || math.IsInf(p[d], 0) {
			return -1
		}
		lo[d], hi[d] = l.span(d, p[d], e2)
	}
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for x := lo[0]; x <= hi[0]; x++ {
				b := x + l.dim[0]*(y+l.dim[1]*z)
				for _, ei := range l.entries[l.start[b]:l.start[b+1]] {
					cp := &l.cps[ei]
					ddx := cp.Pos[0] - p[0]
					ddy := cp.Pos[1] - p[1]
					ddz := cp.Pos[2] - p[2]
					if float64(ddx*ddx)+float64(ddy*ddy)+float64(ddz*ddz) <= e2 {
						return int(ei)
					}
				}
			}
		}
	}
	return -1
}

// span returns the range of buckets along axis d, clamped to the bucket
// grid, that can hold a hit for a probe at coordinate x: the bucket of x,
// widened across each face f with (f−x)² ≤ e2. Along this axis a point
// beyond f is no nearer than f, in floating point too, and near's hit test
// adds the other axes' non-negative terms, so no bucket beyond a face that
// fails the test holds a hit. A face exactly eps away widens the range by
// one bucket that cannot; this is the conservative side of a tie.
func (l *cpLocator) span(d int, x, e2 float64) (lo, hi int) {
	n := l.dim[d]
	base := float64(l.lo[d])
	// Clamping to [-1, n] before the conversion keeps it defined and
	// makes a point beyond the grid start next to it.
	c := int(min(max(math.Floor(x)-base, -1), float64(n)))
	lo, hi = c, c
	for lo > 0 {
		f := base + float64(lo) - x // the face below bucket lo
		if f*f > e2 {
			break
		}
		lo--
	}
	for hi < n-1 {
		f := base + float64(hi+1) - x // the face above bucket hi
		if f*f > e2 {
			break
		}
		hi++
	}
	return max(lo, 0), min(hi, n-1)
}

// recorder appends the vertex ids of the cells a streamline samples to out
// (when non-nil), once per cell entered: a sample in the cell recorded last
// adds nothing.
type recorder struct {
	g    *grid.Grid
	out  *[]int
	last int // the cell recorded last, -1 before the first
}

func (r *recorder) record(cell int) {
	if r.out == nil || cell == r.last {
		return
	}
	r.last = cell
	*r.out = r.g.CellVertices(cell, *r.out)
}

// rk4Step advances p = (px, py, pz) by one RK4 step of size h·dir,
// sampling through smp. ok is false when any of the four stage samples
// falls outside the domain. rec records the cell of each stage sample.
// Points and stage vectors stay scalars, so they can live in registers (Go
// passes no array of more than one element in one). The float operations
// are, in order, those of the [3]float64 RK4 the tests keep as the
// reference, and each product carries a float64 barrier, the dir scaling
// too. The first stage samples p itself: p + 0·k would turn a −0
// coordinate into +0.
func rk4Step(smp *field.Sampler, px, py, pz, h, dir float64, rec *recorder) (nx, ny, nz float64, ok bool) {
	h2 := h / 2
	u1, v1, w1, cell, ok := smp.Sample(px, py, pz)
	if !ok {
		return px, py, pz, false
	}
	rec.record(cell)
	u1, v1, w1 = float64(u1*dir), float64(v1*dir), float64(w1*dir)
	u2, v2, w2, cell, ok := smp.Sample(px+float64(u1*h2), py+float64(v1*h2), pz+float64(w1*h2))
	if !ok {
		return px, py, pz, false
	}
	rec.record(cell)
	u2, v2, w2 = float64(u2*dir), float64(v2*dir), float64(w2*dir)
	u3, v3, w3, cell, ok := smp.Sample(px+float64(u2*h2), py+float64(v2*h2), pz+float64(w2*h2))
	if !ok {
		return px, py, pz, false
	}
	rec.record(cell)
	u3, v3, w3 = float64(u3*dir), float64(v3*dir), float64(w3*dir)
	u4, v4, w4, cell, ok := smp.Sample(px+float64(u3*h), py+float64(v3*h), pz+float64(w3*h))
	if !ok {
		return px, py, pz, false
	}
	rec.record(cell)
	u4, v4, w4 = float64(u4*dir), float64(v4*dir), float64(w4*dir)
	h6 := h / 6
	nx = px + float64(h6*(u1+float64(2*u2)+float64(2*u3)+u4))
	ny = py + float64(h6*(v1+float64(2*v2)+float64(2*v3)+v4))
	nz = pz + float64(h6*(w1+float64(2*w2)+float64(2*w3)+w4))
	return nx, ny, nz, true
}

func add(a, b [3]float64) [3]float64 { return [3]float64{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }
func scale(a [3]float64, s float64) [3]float64 {
	return [3]float64{float64(a[0] * s), float64(a[1] * s), float64(a[2] * s)}
}

// Streamline traces a streamline from seed in direction dir (+1 forward,
// -1 backward) until absorption, domain exit, vanishing velocity, or the
// step budget. loc provides the absorption targets (the sinks/sources of
// its critical points). When verts is non-nil, the vertex ids of each cell
// an RK4 stage samples are appended to it once per cell entered.
func Streamline(f *field.Field, seed [3]float64, dir int, par Params, loc *CPLocator, verts *[]int) Trajectory {
	return streamline(f, seed, dir, par, (*cpLocator)(loc), verts, true)
}

// streamline is the one RK4 loop. keep says whether the trajectory keeps
// its points; a record-only trace (keep false) returns the same Term and
// EndCP and records the same vertices, with Points nil.
func streamline(f *field.Field, seed [3]float64, dir int, par Params, loc *cpLocator, verts *[]int, keep bool) Trajectory {
	tr := Trajectory{EndCP: -1, Saddle: -1, SeedIdx: -1, Dir: dir, Term: MaxSteps}
	if keep {
		tr.Points = append(tr.Points, seed)
	}
	rec := recorder{g: f.Grid, out: verts, last: -1}
	smp := field.NewSampler(f)
	px, py, pz := seed[0], seed[1], seed[2]
	const vEps = 1e-12
	var orbits *orbitDetector
	if par.DetectOrbits {
		eps := par.OrbitEps
		if eps <= 0 {
			eps = par.EpsP
		}
		minSep := par.OrbitMinSep
		if minSep <= 0 {
			minSep = 20
		}
		orbits = newOrbitDetector(eps, minSep)
		orbits.visit(seed, 0)
	}
	for step := 0; step < par.MaxSteps; step++ {
		nx, ny, nz, ok := rk4Step(&smp, px, py, pz, par.H, float64(dir), &rec)
		if !ok {
			tr.Term = LeftDomain
			return tr
		}
		np := [3]float64{nx, ny, nz}
		if keep {
			tr.Points = append(tr.Points, np)
		}
		if cp := loc.near(np, par.EpsP); cp >= 0 {
			tr.Term = AbsorbedAtCP
			tr.EndCP = cp
			return tr
		}
		dx := nx - px
		dy := ny - py
		dz := nz - pz
		if float64(dx*dx)+float64(dy*dy)+float64(dz*dz) < vEps*vEps {
			tr.Term = ZeroVelocity
			return tr
		}
		if orbits != nil && orbits.visit(np, step+1) {
			tr.Term = ClosedOrbit
			return tr
		}
		px, py, pz = nx, ny, nz
	}
	return tr
}

// TraceStreamline is the public entry for a single streamline; it builds
// the critical point locator internally.
func TraceStreamline(f *field.Field, seed [3]float64, dir int, par Params, cps []critical.Point, verts *[]int) Trajectory {
	return streamline(f, seed, dir, par, newCPLocator(cps), verts, true)
}

// SeparatrixSeeds enumerates the separatrix seeds of a saddle: positions
// s ± ε_p·j for each seed direction j, with the integration direction given
// by the eigenvalue sign. A 2D saddle yields 4 seeds, a 3D saddle 6.
func SeparatrixSeeds(cp critical.Point, epsP float64) (seeds [][3]float64, dirs []int, seedIdx []int) {
	for i, d := range cp.SeedDirs {
		plus := add(cp.Pos, scale(d, epsP))
		minus := add(cp.Pos, scale(d, -epsP))
		seeds = append(seeds, plus, minus)
		dirs = append(dirs, cp.SeedSigns[i], cp.SeedSigns[i])
		seedIdx = append(seedIdx, 2*i, 2*i+1)
	}
	return seeds, dirs, seedIdx
}

// TraceSeparatrices traces every separatrix of every saddle in cps over f,
// in deterministic (saddle, seed) order. If verts is non-nil, each
// separatrix appends to it the vertex ids of every cell it enters, once per
// entry: as a set, the involved vertices of Algorithm 2, lines 12-18.
func TraceSeparatrices(f *field.Field, cps []critical.Point, par Params, verts *[]int) []Trajectory {
	loc := newCPLocator(cps)
	var out []Trajectory
	for ci, cp := range cps {
		if cp.Type != critical.Saddle {
			continue
		}
		seeds, dirs, seedIdx := SeparatrixSeeds(cp, par.EpsP)
		for si := range seeds {
			tr := streamline(f, seeds[si], dirs[si], par, loc, verts, true)
			tr.Saddle = ci
			tr.SeedIdx = seedIdx[si]
			out = append(out, tr)
		}
	}
	return out
}

// RecordSeparatricesOf traces the separatrices of the saddle at index ci in
// cps only to record them: it appends to verts what TraceSeparatrices
// records for that saddle, in the same order, and keeps no trajectory
// points. TspSZ-I's trace stage and the corrector's exact fallback need
// only the involved vertices. loc must be built over cps.
func RecordSeparatricesOf(f *field.Field, cps []critical.Point, loc *CPLocator, ci int, par Params, verts *[]int) {
	cp := cps[ci]
	if cp.Type != critical.Saddle {
		return
	}
	seeds, dirs, _ := SeparatrixSeeds(cp, par.EpsP)
	for si := range seeds {
		streamline(f, seeds[si], dirs[si], par, (*cpLocator)(loc), verts, false)
	}
}

// Retrace re-traces a single separatrix identified by its originating
// trajectory (saddle and seed slot) on field f, reusing a prebuilt locator.
func Retrace(f *field.Field, cps []critical.Point, loc *CPLocator, t *Trajectory, par Params, verts *[]int) Trajectory {
	cp := cps[t.Saddle]
	dirIdx := t.SeedIdx / 2
	sign := 1.0
	if t.SeedIdx%2 == 1 {
		sign = -1
	}
	seed := add(cp.Pos, scale(cp.SeedDirs[dirIdx], sign*par.EpsP))
	tr := streamline(f, seed, cp.SeedSigns[dirIdx], par, (*cpLocator)(loc), verts, true)
	tr.Saddle = t.Saddle
	tr.SeedIdx = t.SeedIdx
	return tr
}

// CPLocator is the exported handle for the spatial critical point index,
// so callers can amortize its construction across many Retrace calls.
type CPLocator cpLocator

// NewCPLocator builds a locator over the sinks and sources of cps.
func NewCPLocator(cps []critical.Point) *CPLocator {
	return (*CPLocator)(newCPLocator(cps))
}
