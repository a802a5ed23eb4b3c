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
// but the involved vertices, and RecordRetrace, for the corrector's prefix
// retraces); both run the one RK4 loop, so they record the same list and
// end the same way. Each streamline samples through its own
// field.Sampler, passing points and stage vectors as scalars so that they
// stay in registers. It probes for absorption by a sink or source only
// when it could be within ε_p of one: it spends a slack, its clearance from
// every target less ε_p, on the L1 length of its steps, so that a probe it
// skips would have missed (absorber). Every product in this package is
// written float64(a*b), the Go spec's barrier against fusing it into a
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
	// comes within EpsP of a sink or source, for any finite EpsP ≥ 0 (the
	// tracer takes a negative one as |EpsP|; core.Compress rejects it). The
	// same value scales the seed offset from a saddle.
	EpsP float64
	// MaxSteps bounds the number of RK4 steps (t in the paper); it must be
	// at least 1 for a trace to take a step.
	MaxSteps int
	// H is the RK4 step size, finite and > 0.
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

// near returns the index of a sink/source within eps of (x, y, z), or -1.
// It scans, in z-y-x order, only the buckets that the ball's bounding box
// [⌊p−eps⌋, ⌊p+eps⌋] overlaps, clamped to the bucket grid (see span), so
// for any eps it returns the first hit of a scan over every bucket. A
// point with a NaN or infinite coordinate is never absorbed. A streamline
// runs it only where its slack cannot prove a miss (see absorber).
func (l *cpLocator) near(x, y, z, eps float64) int {
	if !l.hasTargets || !finite(x, y, z) {
		return -1
	}
	e2 := eps * eps
	x0, x1 := l.span(0, x, e2)
	y0, y1 := l.span(1, y, e2)
	z0, z1 := l.span(2, z, e2)
	for bz := z0; bz <= z1; bz++ {
		for by := y0; by <= y1; by++ {
			// The buckets of one row are adjacent in the CSR layout.
			row := l.dim[0] * (by + l.dim[1]*bz)
			for _, ei := range l.entries[l.start[row+x0]:l.start[row+x1+1]] {
				cp := &l.cps[ei]
				ddx := cp.Pos[0] - x
				ddy := cp.Pos[1] - y
				ddz := cp.Pos[2] - z
				if float64(ddx*ddx)+float64(ddy*ddy)+float64(ddz*ddz) <= e2 {
					return int(ei)
				}
			}
		}
	}
	return -1
}

func finite(x, y, z float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && !math.IsNaN(y) && !math.IsInf(y, 0) &&
		!math.IsNaN(z) && !math.IsInf(z, 0)
}

// bucket returns the bucket of coordinate x along axis d, clamped to
// [-1, dim[d]], so that a point beyond the grid starts next to it. x must
// not be NaN. An unclamped bucket c holds x in [lo[d]+c, lo[d]+c+1); a point
// clamped to -1 lies below lo[d], one clamped to dim[d] at or above
// lo[d]+dim[d]. Both bounds are integers, so the comparisons are exact, and
// x is converted only between them, where the conversion is defined; it
// truncates toward zero, one above the floor of a negative non-integer. The
// probe runs this at every refresh, where math.Floor and a float clamp cost
// more than the block scan.
func (l *cpLocator) bucket(d int, x float64) int {
	lo := l.lo[d]
	if x < float64(lo) {
		return -1
	}
	if x >= float64(lo+l.dim[d]) {
		return l.dim[d]
	}
	c := int(x)
	if float64(c) > x {
		c--
	}
	return c - lo
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
	c := l.bucket(d, x)
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

// The absorption margins (DESIGN.md §3). probeMargin is relative and far
// above the roundings it covers: those of the clearance, of the slack, of
// near's squared-distance test, and of an absorber's running sum over the
// at most about 1e12 steps that can add up to a slack. probeFloor is
// absolute and covers squared distances that underflow, below about 1e-300.
const (
	probeMargin = 0x1p-10
	probeFloor  = 0x1p-500
)

// clearance returns a lower bound, at most 1, on the distance from
// (x, y, z) to every sink and source. Targets in the 3×3×3 buckets around
// the bucket of the point, clamped to the grid (see block), count with
// their distances. Every other target lies beyond a face of that block
// that is inside the grid, and each such face is at least 1 from the point
// along its axis, for a point outside the grid too (see bucket), so 1
// bounds them. A point with a NaN or infinite coordinate gets 0.
func (l *cpLocator) clearance(x, y, z float64) float64 {
	if !finite(x, y, z) {
		return 0
	}
	d2 := 1.0
	if l.hasTargets {
		x0, x1 := l.block(0, x)
		y0, y1 := l.block(1, y)
		z0, z1 := l.block(2, z)
		for bz := z0; bz <= z1; bz++ {
			for by := y0; by <= y1; by++ {
				row := l.dim[0] * (by + l.dim[1]*bz)
				for _, ei := range l.entries[l.start[row+x0]:l.start[row+x1+1]] {
					cp := &l.cps[ei]
					ddx := cp.Pos[0] - x
					ddy := cp.Pos[1] - y
					ddz := cp.Pos[2] - z
					d2 = min(d2, float64(ddx*ddx)+float64(ddy*ddy)+float64(ddz*ddz))
				}
			}
		}
	}
	return float64(math.Sqrt(d2)*(1-probeMargin)) - probeFloor
}

// block returns the buckets along axis d of the three around the bucket
// of x, clamped to the bucket grid.
func (l *cpLocator) block(d int, x float64) (lo, hi int) {
	c := l.bucket(d, x)
	return max(c-1, 0), min(c+1, l.dim[d]-1)
}

// absorber is the absorption probe of one streamline. It sums the L1
// displacements of the steps since its last refresh and runs near only
// once that sum reaches the slack the refresh set: how far the streamline
// may move before near could hit at radius r = |eps|, the clearance less
// r, both with margins. near tests against r² = eps², bit for bit. A skipped probe would
// have returned -1: by the triangle inequality and ‖·‖₂ ≤ ‖·‖₁ the point is
// still farther than r from every target, and the margins cover the
// roundings (DESIGN.md §3). The slack is below 1; for r ≥ 1, a NaN eps or
// a non-finite point it is not positive, and every step probes. A new
// absorber probes at its first step.
type absorber struct {
	loc             *cpLocator
	r, moved, slack float64
}

func newAbsorber(loc *cpLocator, eps float64) absorber {
	return absorber{loc: loc, r: math.Abs(eps)}
}

// advance adds a step of (dx, dy, dz) to the sum and reports whether the
// sum reached the slack, so that the point the step reached must be
// refreshed. The caller must end the trace after any step shorter than
// 1e-12: that floor bounds how many steps one sum adds up before it reaches
// a slack, which is below 1, and so bounds the sum's rounding.
func (a *absorber) advance(dx, dy, dz float64) bool {
	a.moved += math.Abs(dx) + math.Abs(dy) + math.Abs(dz)
	return !(a.moved < a.slack)
}

// refresh sets a new slack at (x, y, z) and returns the target that absorbs
// the streamline there, or -1; it runs near unless the new slack already
// proves a miss.
func (a *absorber) refresh(x, y, z float64) int {
	a.moved, a.slack = 0, 0
	if a.r < 1 { // a capped clearance never exceeds a larger radius
		a.slack = float64((a.loc.clearance(x, y, z) - float64(a.r*(1+probeMargin)) - probeFloor) * (1 - probeMargin))
		if a.slack > 0 {
			return -1
		}
	}
	return a.loc.near(x, y, z, a.r)
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
// its critical points); the trace ends at the first step that comes within
// |par.EpsP| of one, whether or not it ran the exact probe there. When
// verts is non-nil, the vertex ids of each cell an RK4 stage samples are
// appended to it once per cell entered.
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
	abs := newAbsorber(loc, par.EpsP)
	const vEps = 1e-12 // absorber.advance's bound rests on this floor
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
		dx := nx - px
		dy := ny - py
		dz := nz - pz
		if abs.advance(dx, dy, dz) {
			if cp := abs.refresh(nx, ny, nz); cp >= 0 {
				tr.Term = AbsorbedAtCP
				tr.EndCP = cp
				return tr
			}
		}
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
	return retrace(f, cps, loc, t, par, verts, true)
}

// RecordRetrace is Retrace only to record: it appends to verts what
// Retrace records and returns the same Term and EndCP, with Points nil.
// The corrector's prefix retraces need only the involved vertices.
func RecordRetrace(f *field.Field, cps []critical.Point, loc *CPLocator, t *Trajectory, par Params, verts *[]int) Trajectory {
	return retrace(f, cps, loc, t, par, verts, false)
}

func retrace(f *field.Field, cps []critical.Point, loc *CPLocator, t *Trajectory, par Params, verts *[]int, keep bool) Trajectory {
	cp := cps[t.Saddle]
	dirIdx := t.SeedIdx / 2
	sign := 1.0
	if t.SeedIdx%2 == 1 {
		sign = -1
	}
	seed := add(cp.Pos, scale(cp.SeedDirs[dirIdx], sign*par.EpsP))
	tr := streamline(f, seed, cp.SeedSigns[dirIdx], par, (*cpLocator)(loc), verts, keep)
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
