package integrate

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"tspsz/internal/critical"
)

// exactSqDist returns ‖t − p‖² without rounding.
func exactSqDist(t, p [3]float64) *big.Rat {
	sum := new(big.Rat)
	for d := 0; d < 3; d++ {
		x := new(big.Rat).SetFloat64(t[d])
		x.Sub(x, new(big.Rat).SetFloat64(p[d]))
		sum.Add(sum, x.Mul(x, x))
	}
	return sum
}

// checkClearance fails unless clearance(p) is at most the exact distance
// from p to every sink and source, and is no looser than the margins allow
// when a target is nearer than 1. A non-finite point must get 0.
func checkClearance(t testing.TB, l *cpLocator, p [3]float64) {
	t.Helper()
	c := l.clearance(p[0], p[1], p[2])
	if !finite(p[0], p[1], p[2]) {
		if c != 0 {
			t.Fatalf("clearance(%v) = %v, want 0", p, c)
		}
		return
	}
	if math.IsNaN(c) || c > 1 {
		t.Fatalf("clearance(%v) = %v, want a number of at most 1", p, c)
	}
	nearest := 1.0
	for _, cp := range l.cps {
		if cp.Type != critical.Sink && cp.Type != critical.Source {
			continue
		}
		if c > 0 {
			c2 := new(big.Rat).SetFloat64(c)
			if c2.Mul(c2, c2).Cmp(exactSqDist(cp.Pos, p)) > 0 {
				t.Fatalf("clearance(%v) = %v exceeds the distance to %v", p, c, cp.Pos)
			}
		}
		dx, dy, dz := cp.Pos[0]-p[0], cp.Pos[1]-p[1], cp.Pos[2]-p[2]
		nearest = min(nearest, math.Sqrt(dx*dx+dy*dy+dz*dz))
	}
	if want := nearest*(1-0x1p-9) - 0x1p-499; c < want {
		t.Fatalf("clearance(%v) = %v, want at least %v (nearest target %v away)", p, c, want, nearest)
	}
}

// walkAbsorber runs a new absorber along pts as streamline does: each step
// probes, then a step shorter than 1e-12 ends the walk, and so does a hit.
// It fails when a probe returns other than refNear, a scan of every bucket,
// and returns how many points it probed without running near.
func walkAbsorber(t testing.TB, l *cpLocator, eps float64, pts [][3]float64) (skipped int) {
	t.Helper()
	a := newAbsorber(l, eps)
	for i := 1; i < len(pts); i++ {
		p, q := pts[i], pts[i-1]
		dx, dy, dz := p[0]-q[0], p[1]-q[1], p[2]-q[2]
		got := -1
		if a.advance(dx, dy, dz) {
			got = a.refresh(p[0], p[1], p[2])
			if a.slack > 0 {
				skipped++
			}
		} else {
			skipped++
		}
		if want := refNear(l, p, eps); got != want {
			t.Fatalf("eps %v, step %d of a walk to %v: probe returned %d, a scan of every bucket %d (slack %v, moved %v)",
				eps, i, p, got, want, a.slack, a.moved)
		}
		if got >= 0 || float64(dx*dx)+float64(dy*dy)+float64(dz*dz) < 1e-24 {
			break
		}
	}
	return skipped
}

// clearanceCases are locators whose targets sit on bucket faces, edges and
// corners, crowd one bucket, scatter in 3D and in a plane at ±0, or stand
// alone.
func clearanceCases(rng *rand.Rand) []struct {
	name string
	cps  []critical.Point
} {
	types := []critical.Type{critical.Sink, critical.Source, critical.Saddle}
	onGrid := func(integerAxes int) []critical.Point {
		cps := make([]critical.Point, 30)
		for i := range cps {
			cps[i].Type = types[i%3]
			for d := 0; d < 3; d++ {
				cps[i].Pos[d] = float64(rng.Intn(8)) + 1
				if d >= integerAxes {
					cps[i].Pos[d] += rng.Float64()
				}
			}
		}
		return cps
	}
	crowded := make([]critical.Point, 12)
	for i := range crowded {
		crowded[i] = critical.Point{Type: types[i%2], Pos: [3]float64{4 + rng.Float64(), 4 + rng.Float64(), 4 + rng.Float64()}}
	}
	random := func(n int, planar bool) []critical.Point {
		cps := make([]critical.Point, n)
		z := 0.0
		for i := range cps {
			cps[i].Type = types[rng.Intn(3)]
			for d := 0; d < 3; d++ {
				cps[i].Pos[d] = rng.Float64() * 12
			}
			if planar {
				cps[i].Pos[2] = z
				z = -z
				if i%2 == 0 {
					z = math.Copysign(0, -1)
				}
			}
		}
		return cps
	}
	return []struct {
		name string
		cps  []critical.Point
	}{
		{"faces", onGrid(1)},
		{"edges", onGrid(2)},
		{"corners", onGrid(3)},
		{"crowded", crowded},
		{"random3d", random(60, false)},
		{"planar", random(40, true)},
		{"single", []critical.Point{{Type: critical.Source, Pos: [3]float64{5.5, 5.25, 0}}}},
		{"no-targets", []critical.Point{{Type: critical.Saddle, Pos: [3]float64{5.5, 5.25, 0}}}},
	}
}

// clearanceProbes returns points around the targets of l: random points in
// and around the grid, points near a target at distances from 1e-300 to 2,
// the targets themselves, integer and ±0 coordinates, points outside the
// bucket grid, and non-finite coordinates.
func clearanceProbes(rng *rand.Rand, l *cpLocator) [][3]float64 {
	var ps [][3]float64
	for n := 0; n < 150; n++ {
		ps = append(ps, [3]float64{rng.Float64()*18 - 3, rng.Float64()*18 - 3, rng.Float64()*18 - 3})
		ps = append(ps, [3]float64{float64(rng.Intn(16) - 2), float64(rng.Intn(16) - 2), float64(rng.Intn(16) - 2)})
	}
	for _, cp := range l.cps {
		ps = append(ps, cp.Pos)
		for _, r := range []float64{2, 1, 0.999, 0.5, 1e-2, 1e-8, 1e-15, 1e-160, 1e-300} {
			p := cp.Pos
			for d := 0; d < 3; d++ {
				p[d] += r * (rng.Float64()*2 - 1)
			}
			ps = append(ps, p)
		}
	}
	z := math.Copysign(0, -1)
	for _, x := range []float64{z, 0} {
		for _, cp := range l.cps[:min(4, len(l.cps))] {
			ps = append(ps, [3]float64{cp.Pos[0], cp.Pos[1], x}, [3]float64{x, cp.Pos[1], cp.Pos[2]}, [3]float64{x, x, x})
		}
	}
	for d := 0; d < 3; d++ {
		for _, x := range []float64{-1e300, -40, float64(l.lo[d]) - 1, float64(l.lo[d] + l.dim[d]), 40, 1e300,
			math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := l.cps[rng.Intn(len(l.cps))].Pos
			p[d] = x
			ps = append(ps, p)
		}
	}
	return ps
}

// bucket is the floor of x less lo, clamped to [-1, dim], for every
// non-NaN x: integers and the floats beside them, in and around the bucket
// grid, ±0, the extremes of float64 and of int, and ±Inf.
func TestBucketMatchesFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, box := range [][2]int{{0, 1}, {0, 8}, {-5, 3}, {-7, 12}, {4, 2}, {-1, 1}} {
		l := &cpLocator{lo: [3]int{box[0]}, dim: [3]int{box[1]}}
		want := func(x float64) int {
			return int(min(max(math.Floor(x)-float64(box[0]), -1), float64(box[1])))
		}
		var xs []float64
		for c := box[0] - 3; c <= box[0]+box[1]+3; c++ {
			x := float64(c)
			xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)),
				x+0.5, x-0.5, x+rng.Float64())
		}
		for _, x := range []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 0x1p52 + 0.5, -0x1p52 - 0.5,
			0x1p63, -0x1p63, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)} {
			xs = append(xs, x)
		}
		for _, x := range xs {
			if got, want := l.bucket(0, x), want(x); got != want {
				t.Fatalf("lo %d, dim %d: bucket(%v) = %d, want %d", box[0], box[1], x, got, want)
			}
		}
	}
}

// clearance is a lower bound on the distance to every sink and source, and
// no looser than its margins where a target is nearer than 1.
func TestClearanceIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, tc := range clearanceCases(rng) {
		l := newCPLocator(tc.cps)
		for _, p := range clearanceProbes(rng, l) {
			checkClearance(t, l, p)
		}
	}
}

// absorberEps are the radii the walks run at, of both signs, below and at
// or above 1, and non-finite.
var absorberEps = []float64{0, 1e-3, -1e-2, 0.3, -0.7, 0.999, 1, -1.8, math.NaN(), math.Inf(1), math.Inf(-1)}

// approach returns a walk that ends at p after n equal steps from q, where
// the walk's first step, from one step beyond q, makes the absorber
// refresh. A step's end is computed, so the last one lands on p exactly.
func approach(q, p [3]float64, n int) [][3]float64 {
	var s [3]float64
	for d := range s {
		s[d] = (p[d] - q[d]) / float64(n)
	}
	pts := [][3]float64{{q[0] - s[0], q[1] - s[1], q[2] - s[2]}, q}
	for i := 1; i < n; i++ {
		pts = append(pts, [3]float64{q[0] + float64(i)*s[0], q[1] + float64(i)*s[1], q[2] + float64(i)*s[2]})
	}
	return append(pts, p)
}

// Every probe an absorber skips would have missed: walks run straight at
// targets, along an axis or a diagonal, in one step or many, and land
// inside, on or just outside the ball of radius |eps|, at eps of both
// signs and non-finite; random walks wander past them. The landing points
// on the ball make near's test a tie that rounding decides.
func TestSkippedProbesMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	dirs := [][3]float64{{1, 0, 0}, {0, -1, 0}, {0, 0, 1}, {1, 1, 0}, {1, -1, 1}, {0.6, 0.8, 0}, {-0.48, 0.6, 0.64}}
	skipped := 0
	for _, tc := range clearanceCases(rng) {
		l := newCPLocator(tc.cps)
		if !l.hasTargets {
			continue
		}
		for _, eps := range absorberEps {
			r := math.Abs(eps)
			if !(r < 1) {
				r = 0.5 // the walks still land somewhere near a target
			}
			for n := 0; n < 40; n++ {
				tgt := l.cps[l.entries[rng.Intn(len(l.entries))]].Pos
				u := dirs[rng.Intn(len(dirs))]
				norm := math.Sqrt(u[0]*u[0] + u[1]*u[1] + u[2]*u[2])
				from := r + 0.01 + rng.Float64()*1.5
				to := r * []float64{0, 0.5, 1, 1, 1}[rng.Intn(5)]
				var q, p [3]float64
				for d := 0; d < 3; d++ {
					q[d] = tgt[d] + from*u[d]/norm
					p[d] = tgt[d] + to*u[d]/norm
				}
				if to == r && rng.Intn(2) == 0 {
					// Land a few ulps off the ball along the last axis the
					// walk moves on.
					d := 2
					for u[d] == 0 {
						d--
					}
					for k := rng.Intn(5) - 2; k != 0; k -= int(math.Copysign(1, float64(k))) {
						p[d] = math.Nextafter(p[d], math.Inf(k))
					}
				}
				steps := []int{1, 2, 7, 50}[rng.Intn(4)]
				skipped += walkAbsorber(t, l, eps, approach(q, p, steps))
				// A random walk from q that turns a little at each step.
				pts := [][3]float64{q}
				for i := 0; i < 30; i++ {
					last := pts[len(pts)-1]
					step := (rng.Float64() + 0.05) * 0.2
					pts = append(pts, [3]float64{
						last[0] + step*(rng.Float64()*2-1), last[1] + step*(rng.Float64()*2-1), last[2] + step*(rng.Float64()*2-1)})
				}
				skipped += walkAbsorber(t, l, eps, pts)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("setup: no walk skipped a probe")
	}
}

// FuzzClearance holds clearance to the exact distance and the absorber to
// a scan of every bucket over fuzzed targets, radii and point walks. A walk
// starts at p and takes n steps of s·shrink^i; every probe it skips must
// miss.
func FuzzClearance(f *testing.F) {
	f.Add(3.0, 3.0, 3.0, 5.5, 5.5, 0.5, 8.0, 2.0, 2.0, uint8(0), 4.0, 3.0, 3.0, -0.05, 0.0, 0.0, 1.0, uint8(40), 1e-2)
	f.Add(3.0, 3.0, 3.0, 5.5, 5.5, 0.5, 8.0, 2.0, 2.0, uint8(0), 4.0, 4.0, 4.0, -0.1, -0.1, -0.1, 0.9, uint8(60), -1e-2)
	f.Add(2.0, 2.0, 0.0, 2.0, 3.0, 0.0, 3.0, 3.0, 0.0, uint8(5), 0.5, 2.0, 0.0, 0.1, 0.0, 0.0, 1.0, uint8(200), 0.0)
	f.Add(1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 7.0, 7.0, 7.0, uint8(18), 3.0, 3.0, 3.0, -0.02, -0.02, -0.02, 1.0, uint8(150), 1.8)
	f.Add(4.5, 4.5, 4.5, 4.6, 4.4, 4.5, 4.5, 4.5, 5.5, uint8(9), 4.5, 4.5, 6.5, 0.0, 0.0, -0.1, 0.95, uint8(90), 1.0)
	f.Add(4.5, 4.5, 4.5, 6.0, 6.0, 6.0, 9.0, 1.0, 1.0, uint8(0), 4.5, 4.5, 5.0, 0.0, 0.0, -1e-3, 1.0, uint8(255), math.NaN())
	f.Add(4.5, 4.5, 4.5, 6.0, 6.0, 6.0, 9.0, 1.0, 1.0, uint8(0), 4.5, 4.5, 5.0, 0.0, 0.0, -1e-3, 1.0, uint8(255), math.Inf(1))
	f.Add(4.5, 4.5, 4.5, 6.0, 6.0, 6.0, 9.0, 1.0, 1.0, uint8(0), 4.5, 4.5, 5.0, 0.0, 0.0, -1e-3, 1.0, uint8(255), math.Inf(-1))
	f.Add(3.0, 3.0, 3.0, 5.5, 5.5, 0.5, 8.0, 2.0, 2.0, uint8(0), 40.0, -3.0, 3.0, -1.0, 0.2, 0.0, 1.0, uint8(60), 0.2)
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz, cx, cy, cz float64, types uint8,
		px, py, pz, sx, sy, sz, shrink float64, n uint8, eps float64) {
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
		pts := [][3]float64{{px, py, pz}}
		step := [3]float64{sx, sy, sz}
		for i := 0; i < int(n); i++ {
			last := pts[len(pts)-1]
			pts = append(pts, [3]float64{last[0] + step[0], last[1] + step[1], last[2] + step[2]})
			for d := range step {
				step[d] = float64(step[d] * shrink)
			}
		}
		for _, p := range pts {
			checkClearance(t, l, p)
		}
		walkAbsorber(t, l, eps, pts)
	})
}
