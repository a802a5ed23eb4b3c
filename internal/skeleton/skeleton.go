// Package skeleton ties critical point extraction and separatrix tracing
// together into the topological skeleton of a vector field (§III-B), and
// implements the skeleton comparison metrics of §VIII-B: the number of
// incorrect separatrices and Fréchet distance statistics.
package skeleton

import (
	"context"
	"math"

	"tspsz/internal/critical"
	"tspsz/internal/field"
	"tspsz/internal/frechet"
	"tspsz/internal/integrate"
	"tspsz/internal/parallel"
)

// Skeleton is the topological skeleton: all critical points plus the
// separatrices seeded at saddles.
type Skeleton struct {
	CPs  []critical.Point
	Seps []integrate.Trajectory
}

// NumSaddles reports the number of saddle critical points.
func (s *Skeleton) NumSaddles() int { return critical.CountSaddles(s.CPs) }

// Extract computes the full topological skeleton of f serially.
func Extract(f *field.Field, par integrate.Params) *Skeleton {
	cps := critical.Extract(f)
	return &Skeleton{CPs: cps, Seps: integrate.TraceSeparatrices(f, cps, par, nil)}
}

// ExtractWith traces the separatrices of f using an externally supplied
// critical point set (typically the one extracted from the original data,
// so that separatrices of original and decompressed fields correspond
// index-by-index, "traced from the same location" as in Fig. 1).
func ExtractWith(f *field.Field, cps []critical.Point, par integrate.Params) *Skeleton {
	return &Skeleton{CPs: cps, Seps: integrate.TraceSeparatrices(f, cps, par, nil)}
}

// ExtractParallel computes the skeleton with the embarrassingly parallel
// strategy of §VII: cells are partitioned across workers for critical point
// extraction and saddles are dynamically scheduled for tracing.
func ExtractParallel(f *field.Field, par integrate.Params, workers int) *Skeleton {
	return must(ExtractParallelCtx(nil, f, par, workers))
}

// ExtractWithParallel is ExtractWith with parallel tracing.
func ExtractWithParallel(f *field.Field, cps []critical.Point, par integrate.Params, workers int) *Skeleton {
	return must(ExtractWithParallelCtx(nil, f, cps, par, workers))
}

// ExtractParallelCtx is ExtractParallel with cancellation: both the cell
// partition and the saddle tracing check ctx at grain boundaries and the
// extraction is abandoned with the context's error once ctx is done. A nil
// ctx never cancels.
func ExtractParallelCtx(ctx context.Context, f *field.Field, par integrate.Params, workers int) (*Skeleton, error) {
	cps, err := ExtractCPsParallelCtx(ctx, f, workers)
	if err != nil {
		return nil, err
	}
	return ExtractWithParallelCtx(ctx, f, cps, par, workers)
}

// ExtractWithParallelCtx is ExtractWithParallel with cancellation. Saddles
// are dynamically scheduled and their separatrices gathered in saddle
// order.
func ExtractWithParallelCtx(ctx context.Context, f *field.Field, cps []critical.Point, par integrate.Params, workers int) (*Skeleton, error) {
	saddles := make([]int, 0)
	for i, cp := range cps {
		if cp.Type == critical.Saddle {
			saddles = append(saddles, i)
		}
	}
	perSaddle := make([][]integrate.Trajectory, len(saddles))
	loc := integrate.NewCPLocator(cps) // shared, read-only after construction
	if err := parallel.For(ctx, len(saddles), workers, 1, func(i int) error {
		cp := cps[saddles[i]]
		seeds, dirs, seedIdx := integrate.SeparatrixSeeds(cp, par.EpsP)
		for si := range seeds {
			tr := integrate.Streamline(f, seeds[si], dirs[si], par, loc, nil)
			tr.Saddle = saddles[i]
			tr.SeedIdx = seedIdx[si]
			perSaddle[i] = append(perSaddle[i], tr)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	sk := &Skeleton{CPs: cps}
	for _, trs := range perSaddle {
		sk.Seps = append(sk.Seps, trs...)
	}
	return sk, nil
}

// ExtractCPsParallel extracts only the critical points, cells partitioned
// across workers, in the same deterministic order as critical.Extract.
func ExtractCPsParallel(f *field.Field, workers int) []critical.Point {
	return must(ExtractCPsParallelCtx(nil, f, workers))
}

// ExtractCPsParallelCtx is ExtractCPsParallel with cancellation.
func ExtractCPsParallelCtx(ctx context.Context, f *field.Field, workers int) ([]critical.Point, error) {
	return gatherCPs(ctx, f, workers, func(lo, hi int) []critical.Point {
		return critical.ExtractRange(f, lo, hi)
	})
}

// ExtractCPsParallelRobustCtx is ExtractCPsParallelCtx with cell
// membership decided by the fixed-point Simulation-of-Simplicity
// predicates: the field is quantized once, then the read-only FixedField
// is shared by all extraction workers. Results are deterministic and
// worker-count independent, like the numerical path.
func ExtractCPsParallelRobustCtx(ctx context.Context, f *field.Field, workers int) ([]critical.Point, error) {
	fx := critical.NewFixedField(f)
	return gatherCPs(ctx, f, workers, func(lo, hi int) []critical.Point {
		return critical.ExtractSoSFixedRange(f, fx, lo, hi)
	})
}

// gatherCPs runs extract on one dispatcher task per deterministic cell
// range and concatenates the results in range order, matching
// critical.Extract exactly.
func gatherCPs(ctx context.Context, f *field.Field, workers int, extract func(lo, hi int) []critical.Point) ([]critical.Point, error) {
	ranges := parallel.Ranges(f.Grid.NumCells(), workers)
	results := make([][]critical.Point, len(ranges))
	if err := parallel.For(ctx, len(ranges), workers, 1, func(i int) error {
		results[i] = extract(ranges[i][0], ranges[i][1])
		return nil
	}); err != nil {
		return nil, err
	}
	var out []critical.Point
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

// must unwraps the result of a nil-ctx call. Nothing can cancel it, so its
// only possible error is a worker panic that parallel.For contained; must
// re-raises that *parallel.PanicError on the caller's goroutine.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// CheckTraj implements check_traj from Algorithms 3 and 4: trajectories
// match when they terminate compatibly (both absorbed within tau of each
// other's endpoint, or the same non-absorbed termination class) and their
// discrete Fréchet distance is at most tau.
func CheckTraj(a, b *integrate.Trajectory, tau float64) bool {
	aAbs := a.Term == integrate.AbsorbedAtCP
	bAbs := b.Term == integrate.AbsorbedAtCP
	if aAbs != bAbs {
		return false
	}
	if aAbs && a.EndCP != b.EndCP {
		// Ending at a different critical point is a different topological
		// structure even if the curves stay close.
		return false
	}
	return frechet.WithinTol(a.Points, b.Points, tau)
}

// Stats summarizes a skeleton comparison (Tables IV–VII).
type Stats struct {
	// Total is the number of separatrix pairs compared.
	Total int
	// Incorrect is the #IS metric: pairs failing CheckTraj.
	Incorrect int
	// MinF/MaxF/MeanF/StdF aggregate the discrete Fréchet distances of
	// all pairs.
	MinF, MaxF, MeanF, StdF float64
}

// Compare evaluates the separatrices of a decompressed skeleton dec against
// the original orig on one worker. Both must have been traced from the same
// critical point set so that separatrices correspond by index (use
// ExtractWith for dec). tau is the Fréchet tolerance τ_t.
func Compare(orig, dec *Skeleton, tau float64) Stats {
	return CompareParallel(orig, dec, tau, 1)
}

// CompareParallel is Compare with the per-pair Fréchet computations spread
// across workers.
func CompareParallel(orig, dec *Skeleton, tau float64, workers int) Stats {
	return must(CompareParallelCtx(nil, orig, dec, tau, workers))
}

// CompareParallelCtx is CompareParallel with cancellation; the per-pair
// Fréchet computations check ctx at grain boundaries.
func CompareParallelCtx(ctx context.Context, orig, dec *Skeleton, tau float64, workers int) (Stats, error) {
	n := len(orig.Seps)
	if len(dec.Seps) < n {
		n = len(dec.Seps)
	}
	st := Stats{Total: n, MinF: math.Inf(1)}
	if n == 0 {
		st.MinF = 0
		return st, nil
	}
	dists := make([]float64, n)
	bad := make([]bool, n)
	if err := parallel.For(ctx, n, workers, 4, func(i int) error {
		a, b := &orig.Seps[i], &dec.Seps[i]
		dists[i] = frechet.Distance(a.Points, b.Points)
		bad[i] = !CheckTraj(a, b, tau)
		return nil
	}); err != nil {
		return Stats{}, err
	}
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		if bad[i] {
			st.Incorrect++
		}
		d := dists[i]
		if d < st.MinF {
			st.MinF = d
		}
		if d > st.MaxF {
			st.MaxF = d
		}
		sum += d
		sumSq += d * d
	}
	if len(orig.Seps) != len(dec.Seps) {
		st.Incorrect += abs(len(orig.Seps) - len(dec.Seps))
	}
	st.MeanF = sum / float64(n)
	variance := sumSq/float64(n) - st.MeanF*st.MeanF
	if variance > 0 {
		st.StdF = math.Sqrt(variance)
	}
	return st, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
