package cpsz

import (
	"context"
	"errors"
	"sync"

	"tspsz/internal/field"
	"tspsz/internal/grid"
	"tspsz/internal/parallel"
	"tspsz/internal/streamerr"
)

// The layer sweep is the one region orchestrator of the Lorenzo path
// (§VII): slab interiors in parallel, then the boundary planes between
// them. Layers — rows in 2D, z-planes in 3D — arrive through a
// field.LayerFetcher, which is a zero-copy view of the field for
// Compress and the caller's source for CompressStream; regions flow
// through a bounded parallel.Pipeline window, and a serial emit stage
// hands each region's streams and reconstruction to a sink in region
// order (interiors ascending, then boundary planes ascending — the order
// the section encoders concatenate region streams in).

// regionBuf is one region's pair of pooled sub-fields over the same
// layers: local holds the original values, work the working copy that
// compressRegion reconstructs into.
type regionBuf struct {
	local, work field.Field
}

// preparedRegion is the serial dispatcher's output for one region: its
// buffers, whose local sub-field holds the region's layers plus its
// neighbor planes (original values), the temporal reference over the same
// layers, the region box translated into local coordinates, the global id
// of local vertex 0, and the optional EbFetcher bounds of the region's own
// vertices.
type preparedRegion struct {
	buf    *regionBuf
	local  *field.Field // &buf.local
	ref    *field.Field // nil without Options.Reference
	r      region
	gid    int
	bounds []float64 // nil without an EbFetcher
	// Global layer of the cut planes this region neighbors (-1 if none);
	// the worker saves the reconstructed planes the boundary pass needs.
	cutBelow, cutAbove int
}

// compressedRegion is a worker's output: the region's symbol streams, its
// buffers (the region's own layers are elements [lo, hi) of buf.work), and
// the reconstructed planes adjacent to its cuts.
type compressedRegion struct {
	rs     *regionStreams
	buf    *regionBuf
	lo, hi int
	gid    int // global id of buf.work's element lo
	// reconForAbove is the reconstruction of layer cutAbove-1 (this
	// region's top layer); reconForBelow of layer cutBelow+1 (its bottom
	// layer).
	reconForAbove, reconForBelow [][]float32
}

// regionSink receives each region in region order on the sweep's serial
// emit stage and owns rs afterwards. recon holds the region's
// reconstructed values per component, the vertices with global ids
// [gid, gid+len(recon[c])); it is valid only during the call.
type regionSink func(rs *regionStreams, gid int, recon [][]float32) error

// layerSweep runs the full region sweep against a LayerFetcher. Fetching
// is serial on the calling goroutine, compressRegion runs on the worker
// pool, and the sink is serial in region order, with at most `window`
// regions in flight.
type layerSweep struct {
	dim        int
	nx, ny     int // cross-section extents of a local grid (ny unused in 2D)
	n          int // layers along the partition axis
	plane      int // vertices per layer
	axis       int
	fetch      field.LayerFetcher
	eb         field.EbFetcher
	ref        *field.Field
	opts       Options
	interiors  []region
	boundaries []region
	workers    int
	window     int

	// Planes saved for the boundary pass, keyed by global cut layer. orig
	// and bounds are written by the serial prepare stage, the recon maps by
	// the serial emit stage; the phases are separated by the Pipeline
	// join, so no map is ever accessed from two goroutines at once.
	orig       map[int][][]float32
	reconBelow map[int][][]float32 // reconstruction of cut-1
	reconAbove map[int][][]float32 // reconstruction of cut+1
	bounds     map[int][]float64

	// Per-sweep buffer arena: local sub-fields, work clones, interior bound
	// slabs, and region symbol streams all churn at every region, so they
	// are pooled to keep the steady-state allocation rate near zero — the
	// out-of-core guarantee is about peak heap, and an allocation rate that
	// outruns the collector inflates peak far beyond the live set.
	// Ownership: a regionBuf passes prepare→work→emit and is re-pooled by
	// the emitter after the sink; interior bound slabs are re-pooled by the
	// worker (boundary regions alias the saved-plane map and are never
	// pooled); region streams belong to the sink, which may hold them or
	// hand them back through putStreams. maxLocalN sizes fresh allocations
	// so pooled buffers always fit any region.
	bufPool     sync.Pool
	boundsPool  sync.Pool
	streamsPool sync.Pool
	maxLocalN   int
}

func newLayerSweep(g *grid.Grid, fetch field.LayerFetcher, eb field.EbFetcher, opts Options) *layerSweep {
	interiors, boundaries := partition(g)
	nx, ny, nz := g.Dims()
	sw := &layerSweep{
		dim: g.Dim(), nx: nx, ny: ny, n: nz, plane: nx * ny, axis: partitionAxis(g),
		fetch: fetch, eb: eb, ref: opts.Reference, opts: opts,
		interiors: interiors, boundaries: boundaries,
		workers:    parallel.Workers(opts.Workers),
		orig:       make(map[int][][]float32),
		reconBelow: make(map[int][][]float32),
		reconAbove: make(map[int][][]float32),
		bounds:     make(map[int][]float64),
		maxLocalN:  3, // boundary regions are always 3 layers
	}
	if sw.dim == 2 {
		sw.n, sw.plane = ny, nx
	}
	sw.window = min(max(sw.workers, 2), len(interiors))
	for _, r := range interiors {
		sw.maxLocalN = max(sw.maxLocalN, r.hi[sw.axis]-r.lo[sw.axis]+2)
	}
	return sw
}

// localGrid is the grid of an n-layer local sub-field.
func (sw *layerSweep) localGrid(n int) *grid.Grid {
	if sw.dim == 2 {
		return grid.New2D(sw.nx, n)
	}
	return grid.New3D(sw.nx, sw.ny, n)
}

// getRegionBuf returns a pair of n-layer sub-fields from the pool,
// allocated at the sweep's maximum local extent so any pooled buffer fits
// any region. The caller must overwrite every layer it reads (prepare
// copies full coverage into local, the worker copies local into work), so
// recycled contents never leak into the output.
func (sw *layerSweep) getRegionBuf(n int) *regionBuf {
	b, ok := sw.bufPool.Get().(*regionBuf)
	if !ok {
		b = &regionBuf{}
		for _, f := range []*field.Field{&b.local, &b.work} {
			c := sw.maxLocalN * sw.plane
			f.U, f.V = make([]float32, 0, c), make([]float32, 0, c)
			if sw.dim == 3 {
				f.W = make([]float32, 0, c)
			}
		}
	}
	g := sw.localGrid(n)
	size := n * sw.plane
	for _, f := range []*field.Field{&b.local, &b.work} {
		f.Grid = g
		f.U, f.V = f.U[:size], f.V[:size]
		if f.W != nil {
			f.W = f.W[:size]
		}
	}
	return b
}

func (sw *layerSweep) putRegionBuf(b *regionBuf) { sw.bufPool.Put(b) }

// getBounds returns an n-element bound slab from the pool; fresh slabs are
// sized for the largest region so pooled ones always fit.
func (sw *layerSweep) getBounds(n int) []float64 {
	if p, ok := sw.boundsPool.Get().(*[]float64); ok {
		return (*p)[:n]
	}
	return make([]float64, n, sw.maxLocalN*sw.plane)
}

func (sw *layerSweep) putBounds(b []float64) { sw.boundsPool.Put(&b) }

// getStreams returns a length-reset regionStreams whose slices keep their
// prior capacity.
func (sw *layerSweep) getStreams() *regionStreams {
	if rs, ok := sw.streamsPool.Get().(*regionStreams); ok {
		rs.ebSyms = rs.ebSyms[:0]
		rs.quantSyms = rs.quantSyms[:0]
		rs.raw = rs.raw[:0]
		rs.marks = rs.marks[:0]
		return rs
	}
	return &regionStreams{}
}

func (sw *layerSweep) putStreams(rs *regionStreams) { sw.streamsPool.Put(rs) }

// checkLayer rejects fetcher output whose shape disagrees with the
// declared dims before anything is copied (a wrong-extent plane would
// otherwise silently shear every later read).
func (sw *layerSweep) checkLayer(k int, planes [][]float32) error {
	if len(planes) != sw.dim {
		return streamerr.Header("layer fetch", "layer %d: fetcher returned %d components, want %d", k, len(planes), sw.dim)
	}
	for c, p := range planes {
		if len(p) != sw.plane {
			return streamerr.Header("layer fetch", "layer %d component %d: %d samples, want %d (%dx%d)", k, c, len(p), sw.plane, sw.nx, sw.ny)
		}
	}
	return nil
}

func (sw *layerSweep) checkBounds(k int, b []float64) error {
	if len(b) != sw.plane {
		return streamerr.Header("bound fetch", "layer %d: %d bounds, want %d (%dx%d)", k, len(b), sw.plane, sw.nx, sw.ny)
	}
	return nil
}

// clonePlanes copies one local layer of every component.
func (sw *layerSweep) clonePlanes(f *field.Field, kLocal int) [][]float32 {
	comps := f.Components()
	out := make([][]float32, len(comps))
	for c, vals := range comps {
		out[c] = append([]float32(nil), vals[kLocal*sw.plane:(kLocal+1)*sw.plane]...)
	}
	return out
}

// prepared assembles the parts of a prepared region shared by interiors
// and boundaries: the global region r translated so that local layer 0 is
// global layer base, and the reference over the same layers.
func (sw *layerSweep) prepared(b *regionBuf, r region, base, top int) preparedRegion {
	p := preparedRegion{buf: b, local: &b.local, r: r, gid: base * sw.plane, cutBelow: -1, cutAbove: -1}
	p.r.lo[sw.axis] -= base
	p.r.hi[sw.axis] -= base
	if sw.ref != nil {
		lo, hi := base*sw.plane, (top+1)*sw.plane
		p.ref = &field.Field{Grid: b.local.Grid, U: sw.ref.U[lo:hi], V: sw.ref.V[lo:hi]}
		if sw.ref.W != nil {
			p.ref.W = sw.ref.W[lo:hi]
		}
	}
	return p
}

// prepareInterior fetches interior i's layers (plus its cut-plane
// neighbors) into a local sub-field, saving original cut planes and bound
// slabs for the boundary pass. Layer fetch order is non-decreasing across
// the whole interior phase.
func (sw *layerSweep) prepareInterior(i int) (preparedRegion, error) {
	r := sw.interiors[i]
	glo, ghi := r.lo[sw.axis], r.hi[sw.axis]
	base := glo
	if glo > 0 {
		base = glo - 1
	}
	top := ghi - 1
	if ghi < sw.n {
		top = ghi
	}
	// Ownership transfer: the region buffers ride in the prepared region to
	// the emitter, and the bound slab below to compressPrepared, which
	// re-pool them; the error paths re-pool here.
	//lint:allow poolguard the success return hands b through the pipeline to the emitter, which re-pools it
	b := sw.getRegionBuf(top - base + 1)
	fail := func(err error) (preparedRegion, error) {
		sw.putRegionBuf(b)
		return preparedRegion{}, err
	}
	lf := &b.local
	comps := lf.Components()
	for k := base; k <= top; k++ {
		planes, err := sw.fetch.Layer(k)
		if err != nil {
			return fail(err)
		}
		if err := sw.checkLayer(k, planes); err != nil {
			return fail(err)
		}
		off := (k - base) * sw.plane
		for c := range comps {
			copy(comps[c][off:off+sw.plane], planes[c])
		}
		if k == ghi && ghi < sw.n {
			// This is the cut plane above; the boundary pass needs its
			// original values after the interiors have overwritten work.
			sw.orig[ghi] = sw.clonePlanes(lf, k-base)
		}
	}
	p := sw.prepared(b, r, base, top)
	if glo > 0 {
		p.cutBelow = glo - 1
	}
	if ghi < sw.n {
		p.cutAbove = ghi
	}
	if sw.eb != nil {
		//lint:allow poolguard the success return hands the slab to compressPrepared, which re-pools it
		p.bounds = sw.getBounds((ghi - glo) * sw.plane)
		failEb := func(err error) (preparedRegion, error) {
			sw.putBounds(p.bounds)
			return fail(err)
		}
		for k := glo; k < ghi; k++ {
			b, err := sw.eb.LayerBounds(k)
			if err != nil {
				return failEb(err)
			}
			if err := sw.checkBounds(k, b); err != nil {
				return failEb(err)
			}
			copy(p.bounds[(k-glo)*sw.plane:(k-glo+1)*sw.plane], b)
		}
		if ghi < sw.n {
			b, err := sw.eb.LayerBounds(ghi)
			if err != nil {
				return failEb(err)
			}
			if err := sw.checkBounds(ghi, b); err != nil {
				return failEb(err)
			}
			sw.bounds[ghi] = append([]float64(nil), b...)
		}
	}
	return p, nil
}

// prepareBoundary assembles the 3-layer local field of boundary i from the
// planes the interior phase saved: recon(c-1), orig(c), recon(c+1) —
// exactly what a whole-field working copy holds once the interiors are
// done.
func (sw *layerSweep) prepareBoundary(i int) (preparedRegion, error) {
	c := sw.boundaries[i].lo[sw.axis]
	below, og, above := sw.reconBelow[c], sw.orig[c], sw.reconAbove[c]
	if below == nil || og == nil || above == nil {
		return preparedRegion{}, errors.New("cpsz: internal: boundary planes missing from interior sweep")
	}
	//lint:allow poolguard ownership transfers through the pipeline to the emitter, which re-pools it
	b := sw.getRegionBuf(3)
	comps := b.local.Components()
	for ci := range comps {
		copy(comps[ci][0:sw.plane], below[ci])
		copy(comps[ci][sw.plane:2*sw.plane], og[ci])
		copy(comps[ci][2*sw.plane:3*sw.plane], above[ci])
	}
	p := sw.prepared(b, sw.boundaries[i], c-1, c+1)
	if sw.eb != nil {
		p.bounds = sw.bounds[c]
	}
	return p, nil
}

// compressPrepared runs compressRegion on the local sub-field. The region
// box is translated so k - lo relations along the partition axis — which
// is all the region-confined predictor and the value-local bound
// derivation depend on — are preserved, making the emitted symbols those
// of the same region of a whole-field working copy.
func (sw *layerSweep) compressPrepared(p preparedRegion) (compressedRegion, error) {
	work := &p.buf.work
	copy(work.U, p.local.U)
	copy(work.V, p.local.V)
	copy(work.W, p.local.W)
	lo, hi := p.r.lo[sw.axis], p.r.hi[sw.axis]
	out := compressedRegion{rs: sw.getStreams(), buf: p.buf, lo: lo * sw.plane, hi: hi * sw.plane, gid: p.gid + lo*sw.plane}
	compressRegion(&p, work, &sw.opts, out.rs)
	if p.cutAbove >= 0 {
		out.reconForAbove = sw.clonePlanes(work, hi-1)
	}
	if p.cutBelow >= 0 {
		out.reconForBelow = sw.clonePlanes(work, lo)
	}
	// Boundary bound slabs alias the saved-plane map and stay out of the
	// pool.
	if p.bounds != nil && !p.r.boundary {
		sw.putBounds(p.bounds)
	}
	return out, nil
}

// emit hands one region to the sink and returns its buffers to the arena.
func (sw *layerSweep) emit(out compressedRegion, sink regionSink) error {
	comps := out.buf.work.Components()
	for c, vals := range comps {
		comps[c] = vals[out.lo:out.hi]
	}
	err := sink(out.rs, out.gid, comps)
	sw.putRegionBuf(out.buf)
	return err
}

// run performs the sweep, invoking sink once per region in deterministic
// region order. Layers (and bound layers) are fetched in non-decreasing
// k; a cut plane is fetched once for each slab it neighbors.
func (sw *layerSweep) run(ctx context.Context, sink regionSink) error {
	work := func(i int, p preparedRegion) (compressedRegion, error) { return sw.compressPrepared(p) }
	err := parallel.Pipeline(ctx, len(sw.interiors), sw.workers, sw.window,
		sw.prepareInterior, work,
		func(i int, out compressedRegion) error {
			r := sw.interiors[i]
			if out.reconForAbove != nil {
				sw.reconBelow[r.hi[sw.axis]] = out.reconForAbove
			}
			if out.reconForBelow != nil {
				sw.reconAbove[r.lo[sw.axis]-1] = out.reconForBelow
			}
			return sw.emit(out, sink)
		})
	if err != nil {
		return err
	}
	return parallel.Pipeline(ctx, len(sw.boundaries), sw.workers, sw.window,
		sw.prepareBoundary, work,
		func(i int, out compressedRegion) error { return sw.emit(out, sink) })
}
