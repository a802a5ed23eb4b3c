// Package segment decomposes a vector field's domain into attraction
// basins: every vertex is labeled by the sink (or source, for backward
// integration) that absorbs the streamline seeded there. Basin agreement
// between original and decompressed data quantifies topology preservation
// at the domain level — the vector-field analogue of the Morse-Smale
// segmentation preservation studied by MSz [40], which the paper cites as
// the scalar-field counterpart of this work.
package segment

import (
	"tspsz/internal/critical"
	"tspsz/internal/field"
	"tspsz/internal/integrate"
	"tspsz/internal/parallel"
)

// Unassigned labels vertices whose streamline reaches no sink/source
// (domain exit, orbit, or step budget).
const Unassigned = -1

// Basins traces a streamline from every vertex of f (forward when dir > 0,
// backward otherwise) and returns, per vertex, the index into cps of the
// absorbing critical point, or Unassigned. cps should come from the
// original data so labels are comparable across reconstructions.
func Basins(f *field.Field, cps []critical.Point, dir int, par integrate.Params, workers int) []int {
	labels, _ := BasinsStrided(f, cps, dir, par, workers, 1)
	return labels
}

// BasinsStrided traces only every stride-th vertex along each axis (other
// entries stay Unassigned), trading resolution for speed on large grids.
// It returns the labels plus the seeded vertex indices; compare label sets
// over the same seed list with AgreementAt.
func BasinsStrided(f *field.Field, cps []critical.Point, dir int, par integrate.Params, workers, stride int) ([]int, []int) {
	return BasinsCapture(f, cps, dir, par, workers, stride, 0)
}

// BasinsCapture generalizes BasinsStrided for fields without genuine
// attractors (divergence-free flows have no sinks, so absorption never
// fires): a trajectory that exhausts its budget is labeled by the nearest
// critical point within capture of its final position. capture == 0
// disables the fallback, reproducing strict absorption labeling.
func BasinsCapture(f *field.Field, cps []critical.Point, dir int, par integrate.Params, workers, stride int, capture float64) ([]int, []int) {
	if stride < 1 {
		stride = 1
	}
	labels := make([]int, f.NumVertices())
	for i := range labels {
		labels[i] = Unassigned
	}
	nx, ny, nz := f.Grid.Dims()
	if f.Dim() == 2 {
		nz = 1
	}
	var seeds []int
	for k := 0; k < nz; k += stride {
		for j := 0; j < ny; j += stride {
			for i := 0; i < nx; i += stride {
				seeds = append(seeds, f.Grid.VertexIndex(i, j, k))
			}
		}
	}
	loc := integrate.NewCPLocator(cps)
	if err := parallel.For(nil, len(seeds), workers, 64, func(si int) error {
		idx := seeds[si]
		seed := f.Grid.VertexPosition(idx)
		tr := integrate.RecordStreamline(f, seed, dir, par, loc, nil)
		switch {
		case tr.Term == integrate.AbsorbedAtCP:
			labels[idx] = tr.EndCP
		case capture > 0:
			labels[idx] = nearestCP(cps, tr.End, capture)
		}
		return nil
	}); err != nil {
		// Nothing cancels a nil ctx: err is a contained worker panic.
		panic(err)
	}
	return labels, seeds
}

// nearestCP returns the index of the critical point closest to p within
// radius capture, or Unassigned.
func nearestCP(cps []critical.Point, p [3]float64, capture float64) int {
	best := Unassigned
	bestD := capture * capture
	for i := range cps {
		dx := cps[i].Pos[0] - p[0]
		dy := cps[i].Pos[1] - p[1]
		dz := cps[i].Pos[2] - p[2]
		if d := dx*dx + dy*dy + dz*dz; d <= bestD {
			bestD = d
			best = i
		}
	}
	return best
}

// AgreementAt returns the fraction of the given positions whose labels
// agree in a and b.
func AgreementAt(a, b []int, idxs []int) float64 {
	if len(a) != len(b) {
		panic("segment: label slices differ in length")
	}
	if len(idxs) == 0 {
		return 1
	}
	same := 0
	for _, i := range idxs {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(idxs))
}

// Agreement returns the fraction of positions with identical labels. It
// panics on length mismatch.
func Agreement(a, b []int) float64 {
	if len(a) != len(b) {
		panic("segment: label slices differ in length")
	}
	if len(a) == 0 {
		return 1
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}

// Sizes returns the vertex count per label (Unassigned under key -1).
func Sizes(labels []int) map[int]int {
	out := make(map[int]int)
	for _, l := range labels {
		out[l]++
	}
	return out
}
