package integrate

import "math"

// Trajectory post-processing utilities: uniform arc-length resampling (for
// rendering and fair curve comparisons) and Douglas–Peucker simplification
// (to thin dense RK4 output before storage or expensive O(n·m) Fréchet
// evaluations — simplifying at tolerance δ changes the discrete Fréchet
// distance by at most δ per curve).

// ArcLength returns the polyline length of pts.
func ArcLength(pts [][3]float64) float64 {
	total := 0.0
	for i := 1; i < len(pts); i++ {
		total += dist3(pts[i-1], pts[i])
	}
	return total
}

func dist3(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(float64(dx*dx) + float64(dy*dy) + float64(dz*dz))
}

// Resample returns n points spaced uniformly in arc length along pts
// (including both endpoints). n must be >= 2; short inputs are padded by
// repeating the single available point.
func Resample(pts [][3]float64, n int) [][3]float64 {
	if n < 2 {
		n = 2
	}
	out := make([][3]float64, 0, n)
	if len(pts) == 0 {
		return out
	}
	if len(pts) == 1 {
		for i := 0; i < n; i++ {
			out = append(out, pts[0])
		}
		return out
	}
	total := ArcLength(pts)
	//lint:allow floatcmp a sum of segment norms is exactly zero iff every point coincides; guard before dividing by total
	if total == 0 {
		for i := 0; i < n; i++ {
			out = append(out, pts[0])
		}
		return out
	}
	seg := 0
	segStart := 0.0
	segLen := dist3(pts[0], pts[1])
	for i := 0; i < n; i++ {
		target := total * float64(i) / float64(n-1)
		for target > segStart+segLen && seg < len(pts)-2 {
			segStart += segLen
			seg++
			segLen = dist3(pts[seg], pts[seg+1])
		}
		t := 0.0
		if segLen > 0 {
			t = (target - segStart) / segLen
			if t > 1 {
				t = 1
			}
			if t < 0 {
				t = 0
			}
		}
		a, b := pts[seg], pts[seg+1]
		out = append(out, [3]float64{
			a[0] + float64(t*(b[0]-a[0])),
			a[1] + float64(t*(b[1]-a[1])),
			a[2] + float64(t*(b[2]-a[2])),
		})
	}
	return out
}

// Simplify returns the Douglas–Peucker simplification of pts at tolerance
// tol: every removed point lies within tol of the simplified polyline.
func Simplify(pts [][3]float64, tol float64) [][3]float64 {
	if len(pts) <= 2 {
		return append([][3]float64(nil), pts...)
	}
	keep := make([]bool, len(pts))
	keep[0] = true
	keep[len(pts)-1] = true
	type span struct{ lo, hi int }
	stack := []span{{0, len(pts) - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		maxD, maxI := -1.0, -1
		for i := s.lo + 1; i < s.hi; i++ {
			d := pointSegmentDist(pts[i], pts[s.lo], pts[s.hi])
			if d > maxD {
				maxD, maxI = d, i
			}
		}
		if maxD > tol {
			keep[maxI] = true
			stack = append(stack, span{s.lo, maxI}, span{maxI, s.hi})
		}
	}
	out := make([][3]float64, 0, len(pts)/4+2)
	for i, k := range keep {
		if k {
			out = append(out, pts[i])
		}
	}
	return out
}

// pointSegmentDist returns the distance from p to segment [a, b].
func pointSegmentDist(p, a, b [3]float64) float64 {
	ab := [3]float64{b[0] - a[0], b[1] - a[1], b[2] - a[2]}
	ap := [3]float64{p[0] - a[0], p[1] - a[1], p[2] - a[2]}
	denom := float64(ab[0]*ab[0]) + float64(ab[1]*ab[1]) + float64(ab[2]*ab[2])
	t := 0.0
	if denom > 0 {
		t = (float64(ap[0]*ab[0]) + float64(ap[1]*ab[1]) + float64(ap[2]*ab[2])) / denom
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
	}
	q := [3]float64{a[0] + float64(t*ab[0]), a[1] + float64(t*ab[1]), a[2] + float64(t*ab[2])}
	return dist3(p, q)
}
