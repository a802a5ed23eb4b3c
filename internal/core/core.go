// Package core implements the paper's primary contribution: the two
// topological-skeleton-preserving compression algorithms of §V.
//
//   - TspSZ-I (Algorithm 2): trace every separatrix on the original data,
//     mark every vertex involved in any RK4 interpolation, and compress with
//     the revised cpSZ while storing those vertices losslessly. Guaranteed
//     exact separatrices with a single compression pass.
//   - TspSZ-i (Algorithm 3 + 4): compress with the revised cpSZ alone, then
//     iteratively correct the separatrices that diverged beyond the Fréchet
//     tolerance by patching growing prefixes of the offending trajectories
//     back to their original values, until the whole skeleton verifies.
//
// Both produce a self-contained container: the cpSZ stream plus (for
// TspSZ-i) a losslessly packed correction patch (compressed₂ in the paper).
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"tspsz/internal/bitmap"
	"tspsz/internal/cpsz"
	"tspsz/internal/critical"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/integrate"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
	"tspsz/internal/skeleton"
	"tspsz/internal/streamerr"
)

// Variant selects the separatrix preservation algorithm.
type Variant int

const (
	// TspSZ1 is the single-pass selective-lossless algorithm (TspSZ-I).
	TspSZ1 Variant = iota
	// TspSZi is the iterative-correction algorithm (TspSZ-i).
	TspSZi
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == TspSZi {
		return "TspSZ-i"
	}
	return "TspSZ-1"
}

// Options configures topological-skeleton-preserving compression.
type Options struct {
	// Variant selects TspSZ-I or TspSZ-i.
	Variant Variant
	// Mode selects relative (cpSZ-style) or absolute (§VI) error control.
	Mode ebound.Mode
	// ErrBound is the user bound ε (Table II).
	ErrBound float64
	// Params are the RK4 parameters θ = {ε_p, t, h} (Table II). The zero
	// value selects integrate.DefaultParams; otherwise EpsP must be finite
	// and ≥ 0, H finite and > 0, and MaxSteps ≥ 1, or compression fails.
	Params integrate.Params
	// Tau is the Fréchet tolerance τ_t for TspSZ-i (Table II default √2).
	// 0 selects the default and +Inf accepts any separatrix that ends
	// compatibly; NaN and negative values are rejected.
	Tau float64
	// Workers bounds parallelism (< 1 means GOMAXPROCS).
	Workers int
	// MaxIterations caps TspSZ-i's outer correction loop; 0 means the
	// default of 64 (the paper observes < 10 in practice).
	MaxIterations int
	// RobustCP decides critical-point membership with the fixed-point
	// Simulation-of-Simplicity predicates (cpSZ-sos) instead of the
	// numerical test: degenerate points on shared cell faces are claimed
	// by exactly one cell. On generic data the two paths extract the same
	// skeleton; the option exists for fields with exact ties.
	RobustCP bool
	// Collector optionally gathers per-stage spans and counters for the
	// whole pipeline (see internal/obs). Nil disables instrumentation at
	// zero cost; attaching a collector never changes the archive.
	Collector *obs.Collector
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.Params == (integrate.Params{}) {
		opts.Params = integrate.DefaultParams()
	}
	if opts.Tau == 0 { //lint:allow floatcmp zero is the documented "unset option" sentinel, never a computed value
		opts.Tau = math.Sqrt2
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 64
	}
	return opts
}

// checkTrace rejects RK4 parameters that trace no separatrix, which would
// leave the skeleton guarantee void without an error: an ε_p that is NaN,
// negative or infinite, an h that is NaN, infinite or not positive, and a
// step budget below 1.
func checkTrace(p integrate.Params) error {
	switch {
	case !(p.EpsP >= 0) || math.IsInf(p.EpsP, 1):
		return fmt.Errorf("absorption threshold EpsP (ε_p) must be finite and non-negative, got %v", p.EpsP)
	case !(p.H > 0) || math.IsInf(p.H, 1):
		return fmt.Errorf("RK4 step size H must be finite and positive, got %v", p.H)
	case p.MaxSteps < 1:
		return fmt.Errorf("RK4 step budget MaxSteps must be at least 1, got %d", p.MaxSteps)
	}
	return nil
}

// Stats reports what compression did, for the evaluation harness.
type Stats struct {
	// NumCPs, NumSaddles, NumSeps describe the original skeleton.
	NumCPs, NumSaddles, NumSeps int
	// LosslessCount is the number of vertices stored verbatim, including
	// the TspSZ-i correction patch.
	LosslessCount int
	// Iterations is the number of TspSZ-i outer correction rounds (0 for
	// TspSZ-I).
	Iterations int
	// InitiallyIncorrect is the number of separatrices the plain revised
	// cpSZ got wrong before correction (TspSZ-i only).
	InitiallyIncorrect int
	// PatchedVertices is the size of the TspSZ-i correction set V.
	PatchedVertices int
	// Obs is the observability snapshot when Options.Collector was set,
	// nil otherwise.
	Obs *obs.Snapshot
}

// Result is the outcome of Compress.
type Result struct {
	// Bytes is the self-contained compressed container.
	Bytes []byte
	// Decompressed is the reconstruction the decoder will produce
	// (including TspSZ-i patches).
	Decompressed *field.Field
	// LosslessVertices marks every verbatim-stored vertex (Fig. 6).
	LosslessVertices *bitmap.Bitmap
	// Stats carries evaluation counters.
	Stats Stats
}

// Compress encodes f while preserving its full topological skeleton.
func Compress(f *field.Field, opts Options) (*Result, error) {
	return CompressCtx(nil, f, opts)
}

// CompressCtx is Compress with cancellation: every parallel stage checks
// ctx at grain boundaries, and an abandoned encode returns a
// streamerr.ErrCancelled-typed error. A nil ctx never cancels.
func CompressCtx(ctx context.Context, f *field.Field, opts Options) (r *Result, err error) {
	defer streamerr.CancelGuard("core", &err)
	o := opts.withDefaults()
	if !(o.ErrBound > 0) {
		return nil, fmt.Errorf("core: error bound must be positive, got %v", o.ErrBound)
	}
	if !(o.Tau > 0) {
		return nil, fmt.Errorf("core: Fréchet tolerance tau must be positive (0 selects √2), got %v", o.Tau)
	}
	if err := checkTrace(o.Params); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var res *Result
	if o.Variant == TspSZ1 {
		res, err = compress1(ctx, f, o, nil)
	} else {
		res, err = compressI(ctx, f, o, nil)
	}
	if err != nil {
		return nil, err
	}
	if o.Collector != nil {
		res.Stats.Obs = o.Collector.Snapshot()
	}
	return res, nil
}

// Decompress reconstructs a field from a TspSZ container. Containers from
// CompressSequence must be decoded with DecompressSequence.
func Decompress(data []byte, workers int) (*field.Field, error) {
	return decompressRef(nil, data, workers, nil, nil)
}

// DecompressCtx is Decompress with cancellation: entropy decode and
// reconstruction check ctx at grain boundaries, and a decode abandoned on
// a done context returns a streamerr.ErrCancelled-typed error with every
// worker joined. A nil ctx never cancels.
func DecompressCtx(ctx context.Context, data []byte, workers int) (*field.Field, error) {
	return decompressRef(ctx, data, workers, nil, nil)
}

// DecompressObserved is Decompress with an optional obs.Collector gathering
// entropy-decode, reconstruction, and patch-apply spans. A nil collector
// makes it identical to Decompress; the reconstruction is byte-identical
// either way.
func DecompressObserved(data []byte, workers int, c *obs.Collector) (*field.Field, error) {
	return decompressRef(nil, data, workers, nil, c)
}

// DecompressCtxObserved is DecompressCtx with an optional obs.Collector.
func DecompressCtxObserved(ctx context.Context, data []byte, workers int, c *obs.Collector) (*field.Field, error) {
	return decompressRef(ctx, data, workers, nil, c)
}

func decompressRef(ctx context.Context, data []byte, workers int, ref *field.Field, c *obs.Collector) (f *field.Field, err error) {
	defer streamerr.Guard("container", &err)
	// A context dead on arrival wins before any parsing (see
	// cpsz.decompress for the rationale).
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	variant, patch, inner, err := parseContainer(data)
	if err != nil {
		return nil, err
	}
	var dec *field.Field
	if ref != nil {
		dec, err = cpsz.DecompressRefCtxObserved(ctx, inner, workers, ref, c)
	} else {
		dec, err = cpsz.DecompressCtxObserved(ctx, inner, workers, c)
	}
	if err != nil {
		return nil, err
	}
	if variant == TspSZi && len(patch.indices) > 0 {
		if err := c.Do(obs.StagePatchApply, 1, int64(len(patch.indices)), func() error {
			return patch.apply(dec)
		}); err != nil {
			return nil, err
		}
		c.Add(obs.CtrPatchedVertices, int64(len(patch.indices)))
	}
	return dec, nil
}

// compress1 is Algorithm 2: selective lossless encoding with a single
// pass; ref enables temporal prediction for sequence frames.
func compress1(ctx context.Context, f *field.Field, o Options, ref *field.Field) (*Result, error) {
	c := o.Collector
	workers := parallel.Workers(o.Workers)
	var cps []critical.Point
	if err := c.Do(obs.StageCPExtract, workers, int64(f.NumVertices()), func() error {
		var err error
		cps, err = extractCPs(ctx, f, &o)
		return err
	}); err != nil {
		return nil, err
	}
	marks := bitmap.New(f.NumVertices())
	markCPCells(f, cps, marks)

	// Trace all separatrices on the original data, collecting every vertex
	// any RK4 stage interpolates from (lines 12-22). Only those vertices
	// are read, so the trace keeps no trajectory points.
	saddles := saddleIndices(cps)
	perSaddle := make([][]int, len(saddles))
	loc := integrate.NewCPLocator(cps) // read-only after construction
	if err := c.Do(obs.StageTrace, workers, int64(len(saddles)), func() error {
		return parallel.For(ctx, len(saddles), o.Workers, 1, func(i int) error {
			var verts []int
			integrate.RecordSeparatricesOf(f, cps, loc, saddles[i], o.Params, &verts)
			perSaddle[i] = verts
			return nil
		})
	}); err != nil {
		return nil, err
	}
	for _, verts := range perSaddle {
		for _, v := range verts {
			marks.Set(v)
		}
	}

	res, err := cpsz.CompressCtx(ctx, f, cpsz.Options{
		Mode: o.Mode, ErrBound: o.ErrBound, Lossless: marks, Workers: o.Workers,
		Reference: ref, Collector: c,
	})
	if err != nil {
		return nil, err
	}
	container, err := sealContainer(c, TspSZ1, patchSet{}, res.Bytes, len(f.Components()))
	if err != nil {
		return nil, err
	}
	return &Result{
		Bytes:            container,
		Decompressed:     res.Decompressed,
		LosslessVertices: res.LosslessVertices,
		Stats: Stats{
			NumCPs:        len(cps),
			NumSaddles:    len(saddles),
			NumSeps:       numSeps(f.Dim(), len(saddles)),
			LosslessCount: res.LosslessVertices.Count(),
		},
	}, nil
}

// compressI is Algorithm 3 with the per-trajectory correction of
// Algorithm 4; ref enables temporal prediction for sequence frames.
func compressI(ctx context.Context, f *field.Field, o Options, ref *field.Field) (*Result, error) {
	c := o.Collector
	workers := parallel.Workers(o.Workers)
	var cps []critical.Point
	if err := c.Do(obs.StageCPExtract, workers, int64(f.NumVertices()), func() error {
		var err error
		cps, err = extractCPs(ctx, f, &o)
		return err
	}); err != nil {
		return nil, err
	}
	saddles := saddleIndices(cps)

	res, err := cpsz.CompressCtx(ctx, f, cpsz.Options{
		Mode: o.Mode, ErrBound: o.ErrBound, Workers: o.Workers, Reference: ref,
		Collector: c,
	})
	if err != nil {
		return nil, err
	}
	dec := res.Decompressed

	// Trace separatrices on original and decompressed data (lines 13-31).
	// Per-trajectory involved-vertex sets make the re-verification rounds
	// incremental: a trajectory that touches no vertex patched in the
	// current round samples exactly the same data, so its previous trace
	// is provably still valid and it is skipped.
	var td, tdp []integrate.Trajectory
	var involved [][]int32
	if err := c.Do(obs.StageTrace, workers, int64(len(saddles)), func() error {
		sk, err := skeleton.ExtractWithParallelCtx(ctx, f, cps, o.Params, o.Workers)
		if err != nil {
			return err
		}
		td = sk.Seps
		tdp, involved, err = traceAllWithInvolved(ctx, dec, cps, saddles, o.Params, o.Workers)
		return err
	}); err != nil {
		return nil, err
	}
	stats := Stats{
		NumCPs:     len(cps),
		NumSaddles: len(saddles),
		NumSeps:    numSeps(f.Dim(), len(saddles)),
	}

	log := &patchLog{patched: bitmap.New(f.NumVertices())}
	loc := integrate.NewCPLocator(cps)
	iter := 0
	// The correction span opens with round 0, the first verification of
	// every separatrix (lines 32-35), so it is recorded even when the
	// skeleton verified on the first try and TspSZ-i stage breakdowns
	// always name the stage.
	if err := c.Do(obs.StageCorrection, workers, int64(len(td)), func() error {
		correct := make([]bool, len(td))
		var queue []int
		if err := parallel.For(ctx, len(td), o.Workers, 4, func(i int) error {
			correct[i] = skeleton.CheckTraj(&td[i], &tdp[i], o.Tau)
			return nil
		}); err != nil {
			return err
		}
		for i := range td {
			if !correct[i] {
				queue = append(queue, i)
			}
		}
		stats.InitiallyIncorrect = len(queue)
		for len(queue) > 0 {
			iter++
			c.Add(obs.CtrCorrectionIters, 1)
			c.Add(obs.CtrCorrectionTraj, int64(len(queue)))
			log.round = log.round[:0]
			if iter > o.MaxIterations {
				// Last resort: patch everything the original separatrices
				// touch, which provably reproduces them (same argument as
				// TspSZ-I), then do a final verification round.
				if err := forceExact(ctx, f, dec, cps, loc, saddles, o, log); err != nil {
					return err
				}
			} else {
				// Speculative parallel correction (§VII): each wrong
				// trajectory is fixed against the shared decompressed data;
				// patch writes are idempotent (they restore originals), and
				// the subsequent global verification catches interactions.
				if err := parallel.For(ctx, len(queue), o.Workers, 1, func(qi int) error {
					fixTraj(f, dec, cps, loc, &td[queue[qi]], o, log)
					return nil
				}); err != nil {
					return err
				}
			}
			// Re-verify (lines 36-49), incrementally: only trajectories whose
			// sample set intersects this round's patches can have changed.
			roundSet := bitmap.New(f.NumVertices())
			for _, idx := range log.round {
				roundSet.Set(idx)
			}
			if err := parallel.For(ctx, len(td), o.Workers, 4, func(i int) error {
				if correct[i] && !touchesAny(involved[i], roundSet) {
					return nil
				}
				var verts []int
				tr := integrate.Retrace(dec, cps, loc, &td[i], o.Params, &verts)
				tdp[i] = tr
				involved[i] = dedupe(verts)
				correct[i] = skeleton.CheckTraj(&td[i], &tdp[i], o.Tau)
				return nil
			}); err != nil {
				return err
			}
			queue = queue[:0]
			for i := range td {
				if !correct[i] {
					queue = append(queue, i)
				}
			}
			if iter > o.MaxIterations && len(queue) > 0 {
				return fmt.Errorf("core: TspSZ-i failed to converge after force-exact fallback (%d wrong)", len(queue))
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	stats.Iterations = iter

	patched := log.patched
	patch := buildPatch(f, patched)
	stats.PatchedVertices = len(patch.indices)
	c.Add(obs.CtrPatchedVertices, int64(len(patch.indices)))
	container, err := sealContainer(c, TspSZi, patch, res.Bytes, len(f.Components()))
	if err != nil {
		return nil, err
	}
	lossless := res.LosslessVertices.Clone()
	lossless.Or(patched)
	stats.LosslessCount = lossless.Count()
	return &Result{
		Bytes:            container,
		Decompressed:     dec,
		LosslessVertices: lossless,
		Stats:            stats,
	}, nil
}

// fixTraj is Algorithm 4: restore growing prefixes of the separatrix to
// original values until the full retrace matches within tau. In addition to
// the vertices the decompressed-data trace involves, the prefix of the
// *original* trajectory is also patched, which guarantees the trace follows
// the original for the whole prefix and therefore guarantees convergence
// once the prefix spans the trajectory.
func fixTraj(orig, dec *field.Field, cps []critical.Point, loc *integrate.CPLocator,
	td *integrate.Trajectory, o Options, log *patchLog) {

	// Find the divergence point (lines 2-8) against the current trace.
	var cur integrate.Trajectory
	log.traceLocked(func() {
		cur = integrate.Retrace(dec, cps, loc, td, o.Params, nil)
	})
	divergeAt := len(td.Points)
	for i := 0; i < len(td.Points) && i < len(cur.Points); i++ {
		if dist(td.Points[i], cur.Points[i]) >= o.Tau {
			divergeAt = i
			break
		}
	}
	if divergeAt > len(cur.Points) {
		divergeAt = len(cur.Points)
	}

	const chunk = 32
	prefix := divergeAt + chunk
	for {
		par := o.Params
		if prefix < par.MaxSteps {
			par.MaxSteps = prefix
		}
		var verts []int
		log.traceLocked(func() {
			// Vertices the decompressed trace currently involves (line 13)...
			integrate.RecordRetrace(dec, cps, loc, td, par, &verts)
		})
		// ...plus the vertices the original trajectory involves over the
		// same prefix, so the patched trace provably follows it (orig is
		// never written, so no lock is needed). Only the vertices are
		// read, so neither retrace keeps its points.
		integrate.RecordRetrace(orig, cps, loc, td, par, &verts)
		log.apply(orig, dec, verts)

		var full integrate.Trajectory
		log.traceLocked(func() {
			full = integrate.Retrace(dec, cps, loc, td, o.Params, nil)
		})
		if skeleton.CheckTraj(td, &full, o.Tau) {
			return
		}
		if prefix >= o.Params.MaxSteps {
			return // fully patched along the trajectory; outer loop re-verifies
		}
		prefix *= 2
	}
}

// forceExact patches every vertex involved in any original separatrix,
// the TspSZ-I guarantee applied as a fallback.
func forceExact(ctx context.Context, orig, dec *field.Field, cps []critical.Point, loc *integrate.CPLocator, saddles []int, o Options, log *patchLog) error {
	return parallel.For(ctx, len(saddles), o.Workers, 1, func(i int) error {
		var verts []int
		integrate.RecordSeparatricesOf(orig, cps, loc, saddles[i], o.Params, &verts)
		log.traceLocked(func() {
			integrate.RecordSeparatricesOf(dec, cps, loc, saddles[i], o.Params, &verts)
		})
		log.apply(orig, dec, verts)
		return nil
	})
}

// patchLog tracks the cumulative patched-vertex set plus the vertices
// patched in the current correction round (consumed by the incremental
// re-verification). Its RWMutex also guards the shared decompressed field
// during speculative parallel correction: tracers hold the read lock,
// patch application the write lock, so the paper's stale-read speculation
// stays within the Go memory model (a fix may still trace data patched by
// a concurrent fix between its lock sections; the global verification pass
// catches any interaction).
type patchLog struct {
	mu      sync.RWMutex
	patched *bitmap.Bitmap
	round   []int
}

// traceLocked runs fn under the read lock, for retraces of the shared
// decompressed field during correction.
func (l *patchLog) traceLocked(fn func()) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	fn()
}

// apply restores original values at the given vertices. Writes are
// serialized: they are idempotent, but the shared bitmap, the round list,
// and the float32 stores need a consistent view for the verification pass.
func (l *patchLog) apply(orig, dec *field.Field, verts []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	decComps := dec.Components()
	origComps := orig.Components()
	for _, v := range verts {
		if l.patched.Get(v) {
			continue
		}
		l.patched.Set(v)
		l.round = append(l.round, v)
		for c := range decComps {
			decComps[c][v] = origComps[c][v]
		}
	}
}

// traceAllWithInvolved traces every separatrix like
// skeleton.ExtractWithParallelCtx and also returns each trajectory's
// deduplicated involved-vertex set.
func traceAllWithInvolved(ctx context.Context, f *field.Field, cps []critical.Point, saddles []int, par integrate.Params, workers int) ([]integrate.Trajectory, [][]int32, error) {
	perSaddle := make([][]integrate.Trajectory, len(saddles))
	perInv := make([][][]int32, len(saddles))
	loc := integrate.NewCPLocator(cps) // read-only after construction
	if err := parallel.For(ctx, len(saddles), workers, 1, func(i int) error {
		cp := cps[saddles[i]]
		if cp.Type != critical.Saddle {
			return nil
		}
		seeds, dirs, seedIdx := integrate.SeparatrixSeeds(cp, par.EpsP)
		for si := range seeds {
			var verts []int
			tr := integrate.Streamline(f, seeds[si], dirs[si], par, loc, &verts)
			tr.Saddle = saddles[i]
			tr.SeedIdx = seedIdx[si]
			perSaddle[i] = append(perSaddle[i], tr)
			perInv[i] = append(perInv[i], dedupe(verts))
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var out []integrate.Trajectory
	var inv [][]int32
	for i := range perSaddle {
		out = append(out, perSaddle[i]...)
		inv = append(inv, perInv[i]...)
	}
	return out, inv, nil
}

// dedupe sorts and uniquifies a vertex list into a compact int32 slice.
func dedupe(verts []int) []int32 {
	out := make([]int32, len(verts))
	for i, v := range verts {
		out[i] = int32(v)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// touchesAny reports whether any vertex in the sorted set appears in the
// round bitmap.
func touchesAny(set []int32, round *bitmap.Bitmap) bool {
	for _, v := range set {
		if round.Get(int(v)) {
			return true
		}
	}
	return false
}

func dist(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(float64(dx*dx) + float64(dy*dy) + float64(dz*dz))
}

func extractCPs(ctx context.Context, f *field.Field, o *Options) ([]critical.Point, error) {
	if o.RobustCP {
		return skeleton.ExtractCPsParallelRobustCtx(ctx, f, o.Workers)
	}
	return skeleton.ExtractCPsParallelCtx(ctx, f, o.Workers)
}

func markCPCells(f *field.Field, cps []critical.Point, marks *bitmap.Bitmap) {
	var vbuf [4]int
	for _, cp := range cps {
		for _, v := range f.Grid.CellVertices(cp.Cell, vbuf[:0]) {
			marks.Set(v)
		}
	}
}

func saddleIndices(cps []critical.Point) []int {
	var out []int
	for i, cp := range cps {
		if cp.Type == critical.Saddle {
			out = append(out, i)
		}
	}
	return out
}

func numSeps(dim, saddles int) int {
	if dim == 2 {
		return 4 * saddles
	}
	return 6 * saddles
}
