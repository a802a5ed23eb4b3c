package integrate

import "math"

// Closed-orbit detection. The paper caps trajectories at t steps because
// "closed streamlines [50] and orbits [51] may never reach a destination"
// (§IV-A); detecting them explicitly lets a tracer terminate early with a
// meaningful label instead of exhausting the budget. The detector follows
// the spirit of Wischgoll & Scheuermann: it watches for returns to a
// previously visited neighbourhood after a minimum arc separation, using a
// spatial hash of sampled positions.

// orbitDetector indexes visited positions in buckets of size cellSize and
// reports a revisit when the trajectory comes within eps of a position at
// least minSep steps older.
type orbitDetector struct {
	cellSize float64
	eps2     float64
	minSep   int
	buckets  map[[3]int][]orbitSample
}

type orbitSample struct {
	pos  [3]float64
	step int
}

func newOrbitDetector(eps float64, minSep int) *orbitDetector {
	cs := eps * 2
	if cs <= 0 {
		cs = 1e-6
	}
	return &orbitDetector{
		cellSize: cs,
		eps2:     eps * eps,
		minSep:   minSep,
		buckets:  make(map[[3]int][]orbitSample),
	}
}

func (d *orbitDetector) key(p [3]float64) [3]int {
	return [3]int{
		int(math.Floor(p[0] / d.cellSize)),
		int(math.Floor(p[1] / d.cellSize)),
		int(math.Floor(p[2] / d.cellSize)),
	}
}

// visit records p at the given step and reports whether a sufficiently old
// neighbour exists within eps — i.e. whether the trajectory closed a loop.
func (d *orbitDetector) visit(p [3]float64, step int) bool {
	k := d.key(p)
	closed := false
	for dz := -1; dz <= 1 && !closed; dz++ {
		for dy := -1; dy <= 1 && !closed; dy++ {
			for dx := -1; dx <= 1; dx++ {
				for _, s := range d.buckets[[3]int{k[0] + dx, k[1] + dy, k[2] + dz}] {
					if step-s.step < d.minSep {
						continue
					}
					ddx := p[0] - s.pos[0]
					ddy := p[1] - s.pos[1]
					ddz := p[2] - s.pos[2]
					if float64(ddx*ddx)+float64(ddy*ddy)+float64(ddz*ddz) <= d.eps2 {
						closed = true
						break
					}
				}
			}
		}
	}
	d.buckets[k] = append(d.buckets[k], orbitSample{pos: p, step: step})
	return closed
}
