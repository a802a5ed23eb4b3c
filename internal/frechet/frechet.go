// Package frechet implements the discrete Fréchet distance between
// polygonal curves (Eiter & Mannila), the trajectory-similarity metric TspSZ
// uses to decide whether a separatrix survived compression (§IV-A, §VIII-B).
package frechet

import "math"

// Point is a point on a trajectory; 2D trajectories set the third coordinate
// to zero.
type Point = [3]float64

// sqDist is the squared distance between a and b. Each product is written
// float64(x*x), the Go spec's barrier against fusing it into the sum, so
// TspSZ-i's Fréchet verdicts round the same on every platform (make
// fma-check holds it).
func sqDist(a, b Point) float64 {
	dx := a[0] - b[0]
	dy := a[1] - b[1]
	dz := a[2] - b[2]
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
}

// Distance returns the discrete Fréchet distance between curves p and q
// using the standard O(|p|·|q|) coupled dynamic program with a rolling row.
// Distance of an empty curve against anything is +Inf except for two empty
// curves, which have distance 0.
func Distance(p, q []Point) float64 {
	if len(p) == 0 && len(q) == 0 {
		return 0
	}
	if len(p) == 0 || len(q) == 0 {
		return math.Inf(1)
	}
	// Fast path: identical curves (bit-exact separatrices after TspSZ-1
	// are the common case in the evaluation harness) need no DP.
	if len(p) == len(q) {
		same := true
		for i := range p {
			if p[i] != q[i] {
				same = false
				break
			}
		}
		if same {
			return 0
		}
	}
	// prev[j] = c(i-1, j); cur[j] = c(i, j), with
	// c(i,j) = max(d(p_i,q_j), min(c(i-1,j), c(i-1,j-1), c(i,j-1))).
	prev := make([]float64, len(q))
	cur := make([]float64, len(q))
	prev[0] = sqDist(p[0], q[0])
	for j := 1; j < len(q); j++ {
		prev[j] = math.Max(prev[j-1], sqDist(p[0], q[j]))
	}
	for i := 1; i < len(p); i++ {
		cur[0] = math.Max(prev[0], sqDist(p[i], q[0]))
		for j := 1; j < len(q); j++ {
			m := math.Min(prev[j], math.Min(prev[j-1], cur[j-1]))
			cur[j] = math.Max(m, sqDist(p[i], q[j]))
		}
		prev, cur = cur, prev
	}
	return math.Sqrt(prev[len(q)-1])
}

// WithinTol reports whether the discrete Fréchet distance between p and q is
// at most tol. Cell (i, j) of the |p|·|q| coupling table is usable when
// sqDist(p[i], q[j]) <= tol*tol, and the distance is within tol when a
// monotone path of usable cells joins (0, 0) to the last cell. WithinTol
// returns exactly what the boolean reachability DP over the whole table
// returns, in three tiers, cheapest first:
//
//  1. Every coupling pairs the first points and the last points, so when
//     either pair is unusable the answer is false, in O(1).
//  2. The index-by-index coupling, with the shorter curve's last point paired
//     with the rest of the longer one, is such a path; when all its cells are
//     usable the answer is true, in O(|p|+|q|). Separatrices that track their
//     original point for point end here.
//  3. Otherwise the DP runs over each row's reachable band only and stops at
//     the first row with no reachable cell.
func WithinTol(p, q []Point, tol float64) bool {
	if len(p) == 0 && len(q) == 0 {
		return true
	}
	if len(p) == 0 || len(q) == 0 {
		return false
	}
	t2 := tol * tol
	n, m := len(p), len(q)
	if !(sqDist(p[0], q[0]) <= t2) || !(sqDist(p[n-1], q[m-1]) <= t2) {
		return false
	}
	if couplingWithin(p, q, t2) {
		return true
	}
	return bandWithin(p, q, t2)
}

// couplingWithin reports whether every pair of the index-by-index coupling
// lies within sqrt(t2): (k, k) up to the shorter curve's end, then that
// curve's last point against each remaining point of the longer one.
func couplingWithin(p, q []Point, t2 float64) bool {
	n, m := len(p), len(q)
	for k := 0; k < max(n, m); k++ {
		if !(sqDist(p[min(k, n-1)], q[min(k, m-1)]) <= t2) {
			return false
		}
	}
	return true
}

// bandWithin is the boolean reachability DP of WithinTol restricted to the
// reachable band of each row. Cell (i, j) is reachable when it is usable
// and one of (i-1, j), (i-1, j-1), (i, j-1) is. Row i therefore has no
// reachable cell left of row i-1's first one (lo), and right of row i-1's
// last one plus one (hi+1) only the run of usable cells continuing a
// reachable cell. Cells outside [lo, hi] of the previous row are never read.
func bandWithin(p, q []Point, t2 float64) bool {
	m := len(q)
	prev := make([]bool, m)
	cur := make([]bool, m)
	// Row 0 is the run of usable cells from (0, 0).
	lo, hi := 0, -1
	for hi+1 < m && sqDist(p[0], q[hi+1]) <= t2 {
		hi++
		prev[hi] = true
	}
	if hi < 0 {
		return false
	}
	for i := 1; i < len(p); i++ {
		nlo, nhi := -1, -1
		left := false // cur[j-1]
		for j := lo; j < m; j++ {
			from := left
			if j <= hi {
				from = from || prev[j] || (j > lo && prev[j-1])
			} else if j == hi+1 {
				from = from || prev[hi]
			}
			left = from && sqDist(p[i], q[j]) <= t2
			cur[j] = left
			if left {
				if nlo < 0 {
					nlo = j
				}
				nhi = j
			} else if j > hi {
				break // nothing further right can be reached
			}
		}
		if nlo < 0 {
			return false
		}
		prev, cur = cur, prev
		lo, hi = nlo, nhi
	}
	return hi == m-1
}
