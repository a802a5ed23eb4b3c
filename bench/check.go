package main

// The guarantee oracle. Every distinct archive a run produces (keyed by
// SHA-256) is decoded once more and held to what its compression path
// promises:
//
//   - the decode equals the reconstruction Compress returned, bit for bit;
//   - every component error is within the bound, |x − x′| ≤ eb;
//   - the critical points match the original's in count, cell and type;
//   - no separatrix is incorrect at τ (#IS = 0);
//   - TspSZ-I separatrices are point-identical, TspSZ-i ones within
//     Fréchet distance τ.
//
// The streaming path without a bound fetcher promises only the error bound,
// so only that is checked there. A violation fails every op that produced or
// decoded the archive; it is a finding, not a harness error.

import (
	"fmt"
	"math"
	"sort"

	"tspsz"
	"tspsz/internal/critical"
	"tspsz/internal/frechet"
	"tspsz/internal/integrate"
	"tspsz/internal/metrics"
	"tspsz/internal/skeleton"
)

// reference is the original window's skeleton, computed once per window.
type reference struct {
	cps []critical.Point
	sk  *skeleton.Skeleton
}

func (win *window) reference(par integrate.Params) *reference {
	if win.ref == nil {
		cps := skeleton.ExtractCPsParallel(win.f, workers)
		win.ref = &reference{cps: cps, sk: skeleton.ExtractWithParallel(win.f, cps, par, workers)}
	}
	return win.ref
}

// verdict is the oracle's finding for one archive.
type verdict struct {
	err               error // decode failure
	decodeMismatch    bool
	maxErrOverEb      float64
	cpMismatches      int
	incorrectSeps     int
	maxFrechetOverTau float64
	psnr              float64
}

func (v *verdict) ok() bool {
	return v.err == nil && !v.decodeMismatch && v.maxErrOverEb <= 1 &&
		v.cpMismatches == 0 && v.incorrectSeps == 0 && v.maxFrechetOverTau <= 1
}

func (v *verdict) String() string {
	if v.err != nil {
		return "decode: " + v.err.Error()
	}
	return fmt.Sprintf("decode_mismatch=%v max_err/eb=%.4g cp_mismatches=%d incorrect_seps=%d max_frechet/tau=%.4g",
		v.decodeMismatch, v.maxErrOverEb, v.cpMismatches, v.incorrectSeps, v.maxFrechetOverTau)
}

// check holds one archive of window win to the guarantees of w's path. want
// is the reconstruction the decode must reproduce: Result.Decompressed on
// the in-memory path, the op's own first decode on the streaming path.
// exactFrechet also computes the largest Fréchet distance, a quadratic DP
// per separatrix that the guarantee itself does not need.
func check(w *workload, win *window, opts tspsz.Options, archive []byte, want *tspsz.Field, exactFrechet bool) *verdict {
	v := &verdict{}
	dec, err := tspsz.Decompress(archive, workers)
	if err != nil {
		v.err = err
		return v
	}
	v.decodeMismatch = want != nil && !sameField(dec, want)
	orig := win.f.Components()
	for c, comp := range dec.Components() {
		for i, x := range comp {
			v.maxErrOverEb = math.Max(v.maxErrOverEb, math.Abs(float64(x)-float64(orig[c][i]))/opts.ErrBound)
		}
	}
	v.psnr = metrics.PSNR(win.f, dec)
	if w.stream {
		return v
	}

	ref := win.reference(opts.Params)
	got := skeleton.ExtractCPsParallel(dec, workers)
	v.cpMismatches = abs(len(got) - len(ref.cps))
	for i := 0; i < min(len(got), len(ref.cps)); i++ {
		if got[i].Cell != ref.cps[i].Cell || got[i].Type != ref.cps[i].Type {
			v.cpMismatches++
		}
	}

	decSk := skeleton.ExtractWithParallel(dec, ref.cps, opts.Params, workers)
	n := min(len(decSk.Seps), len(ref.sk.Seps))
	v.incorrectSeps = abs(len(decSk.Seps) - len(ref.sk.Seps))
	bounds := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := &ref.sk.Seps[i], &decSk.Seps[i]
		bounds[i] = couplingBound(a.Points, b.Points)
		if w.variant == tspsz.TspSZ1 {
			// Exactness is stricter than CheckTraj: a separatrix that is
			// not point-identical is incorrect.
			if !samePoints(a.Points, b.Points) {
				v.incorrectSeps++
			}
		} else if !(sameEnd(a, b) && bounds[i] <= opts.Tau) && !skeleton.CheckTraj(a, b, opts.Tau) {
			v.incorrectSeps++
		}
	}
	if exactFrechet {
		// A pair's distance is at most its coupling bound, so pairs taken
		// in decreasing bound order stop needing the quadratic DP once the
		// bound falls to the largest distance found.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool { return bounds[order[x]] > bounds[order[y]] })
		maxF := 0.0
		for _, i := range order {
			if bounds[i] <= maxF {
				break
			}
			maxF = math.Max(maxF, frechet.Distance(ref.sk.Seps[i].Points, decSk.Seps[i].Points))
		}
		v.maxFrechetOverTau = maxF / opts.Tau
	}
	return v
}

// couplingBound bounds the discrete Fréchet distance from above in linear
// time: pairing the points index by index, the shorter curve's last point
// absorbing the longer one's tail, is a valid coupling. When the bound is
// within tau, so is the distance, and CheckTraj's quadratic DP is skipped.
func couplingBound(p, q []frechet.Point) float64 {
	if len(p) == 0 || len(q) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for i := 0; i < max(len(p), len(q)); i++ {
		a, b := p[min(i, len(p)-1)], q[min(i, len(q)-1)]
		dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
		worst = math.Max(worst, dx*dx+dy*dy+dz*dz)
	}
	return math.Sqrt(worst)
}

// sameEnd is CheckTraj's termination test: both curves are absorbed, by the
// same critical point, or neither is.
func sameEnd(a, b *integrate.Trajectory) bool {
	absorbed := a.Term == integrate.AbsorbedAtCP
	return absorbed == (b.Term == integrate.AbsorbedAtCP) && (!absorbed || a.EndCP == b.EndCP)
}

func samePoints(a, b []frechet.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameField compares two fields bit for bit.
func sameField(a, b *tspsz.Field) bool {
	ac, bc := a.Components(), b.Components()
	if len(ac) != len(bc) {
		return false
	}
	for c := range ac {
		if len(ac[c]) != len(bc[c]) {
			return false
		}
		for i := range ac[c] {
			if math.Float32bits(ac[c][i]) != math.Float32bits(bc[c][i]) {
				return false
			}
		}
	}
	return true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
