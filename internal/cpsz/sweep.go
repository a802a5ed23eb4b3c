package cpsz

import (
	"context"
	"slices"
	"sync"

	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/grid"
	"tspsz/internal/parallel"
	"tspsz/internal/streamerr"
)

// The layer sweep is the one region orchestrator of the Lorenzo path
// (§VII), and it parallelizes at three levels:
//
//  1. Slab interiors run side by side, then the boundary planes between
//     them. Layers — rows in 2D, z-planes in 3D — arrive through a
//     field.LayerFetcher, which is a zero-copy view of the field for
//     Compress and the caller's source for CompressStream; regions flow
//     through a bounded parallel.Pipeline window.
//  2. A serial emit stage hands each region's streams and reconstruction
//     to a sink in region order (interiors ascending, then boundary planes
//     ascending — the order the section encoders concatenate region
//     streams in).
//  3. Inside a region, tiles in dependency order. The region is cut into
//     tileSide×tileSide tiles over x and y, each spanning all of the
//     region's planes; each tile is compressed in raster order, one
//     parallel.Wavefront per region starts tile (I, J) as soon as tiles
//     (I-1, J) and (I, J-1) are done, and the tiles' streams are stitched
//     back into the region's raster order.
//
// The tiles leave every archive as the raster sweep writes it. Every
// vertex that ebound.VertexBound and VertexBoundSoS read through v's star
// (2D triangles split along the (1,1) diagonal, Kuhn tetrahedra whose
// vertices form a chain 0 ≤ e₁ ≤ e₂ ≤ e₃) lies at an offset from v that is
// componentwise all ≥ 0 or all ≤ 0, and so does the region-confined
// Lorenzo stencil (all ≤ 0). A vertex u ≤ v componentwise lies in v's tile
// or in a tile ≤ v's, an ancestor that is done before v's tile starts, and
// u ≥ v in v's tile or a tile ≥ v's, a descendant that starts only after
// v's tile is done, so each read sees what raster order sees: decompressed
// values behind, original values ahead. Tiles that run at the same time
// are incomparable (one is right of and below the other), so no vertex of
// one reads or writes a vertex of the other. The tiles use only the
// workers the region level leaves idle, workers / min(workers, regions in
// the phase): with one worker a region is a single tile that runs the
// raster loop straight into its streams.

// tileSide is the x and y extent, in vertices, of a wave tile.
const tileSide = 4

// regionBuf is one region's pair of pooled sub-fields over the same
// layers: local holds the original values, work the working copy that
// the region is reconstructed into.
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
	// Index into layerSweep.cuts of the cut planes this interior
	// neighbors (-1 if none); the worker saves the reconstructed planes
	// the boundary pass needs there.
	cutBelow, cutAbove int
}

// compressedRegion is a worker's output: the region's symbol streams and
// its buffers (the region's own layers are elements [lo, hi) of buf.work).
type compressedRegion struct {
	rs     *regionStreams
	buf    *regionBuf
	lo, hi int
	gid    int // global id of buf.work's element lo
}

// cutPlanes is what the boundary pass needs of one cut plane c: the
// reconstructions of layers c-1 and c+1 and the original values of c, per
// component, plus the EbFetcher bounds of c.
type cutPlanes struct {
	below, orig, above [][]float32
	bounds             []float64
}

// regionSink receives each region in region order on the sweep's serial
// emit stage and owns rs afterwards. recon holds the region's
// reconstructed values per component, the vertices with global ids
// [gid, gid+len(recon[c])); it is valid only during the call.
type regionSink func(rs *regionStreams, gid int, recon [][]float32) error

// layerSweep runs the full region sweep against a LayerFetcher. Fetching
// is serial on the calling goroutine, regions are compressed on the worker
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
	ebPerVert  int // eb symbols per vertex: 1 in absolute mode, dim in relative

	// cuts[b] holds the planes of cut boundaries[b] the interior phase
	// saves for the boundary pass. Interior i neighbors cuts i-1 and i.
	// The original plane is written by the serial prepare stage, each
	// reconstruction by the one interior worker whose edge layer it is,
	// and all are read by the boundary phase after the interior Pipeline
	// has joined, so no slot is ever accessed from two goroutines at once.
	// The planes live in one arena allocated with the sweep.
	cuts []cutPlanes

	// Per-sweep buffer arena: local sub-fields, work clones, interior bound
	// slabs and region symbol streams all churn at every region, so they
	// are pooled to keep the steady-state allocation rate near zero — the
	// out-of-core guarantee is about peak heap, and an allocation rate that
	// outruns the collector inflates peak far beyond the live set (wave
	// tiles are pooled too, in waveTilesPool). Ownership: a regionBuf
	// passes prepare→work→emit and is re-pooled by the emitter after the
	// sink; interior bound slabs and wave tiles are re-pooled by the worker
	// (boundary regions alias the saved cut bounds and are never pooled);
	// region streams belong to the sink, which may hold them or hand them
	// back through putStreams. maxLocalN sizes fresh allocations so pooled
	// buffers always fit any region.
	bufPool     sync.Pool
	boundsPool  sync.Pool
	streamsPool sync.Pool
	maxLocalN   int
	grids       []*grid.Grid // local grid of n layers, by n (prepare stage only)
	emitHdr     [][]float32  // recon header handed to the sink (emit stage only)
}

func newLayerSweep(g *grid.Grid, fetch field.LayerFetcher, eb field.EbFetcher, opts Options) *layerSweep {
	interiors, boundaries := partition(g)
	nx, ny, nz := g.Dims()
	sw := &layerSweep{
		dim: g.Dim(), nx: nx, ny: ny, n: nz, plane: nx * ny, axis: partitionAxis(g),
		fetch: fetch, eb: eb, ref: opts.Reference, opts: opts,
		interiors: interiors, boundaries: boundaries,
		workers:   parallel.Workers(opts.Workers),
		ebPerVert: 1,
		maxLocalN: 3, // boundary regions are always 3 layers
	}
	if sw.dim == 2 {
		sw.n, sw.plane = ny, nx
	}
	if opts.Mode == ebound.Relative {
		sw.ebPerVert = sw.dim
	}
	sw.window = min(max(sw.workers, 2), len(interiors))
	for _, r := range interiors {
		sw.maxLocalN = max(sw.maxLocalN, r.hi[sw.axis]-r.lo[sw.axis]+2)
	}
	sw.grids = make([]*grid.Grid, sw.maxLocalN+1)
	sw.emitHdr = make([][]float32, sw.dim)

	// One arena holds every saved cut plane: three per cut, each with one
	// header per component.
	sw.cuts = make([]cutPlanes, len(boundaries))
	vals := make([]float32, 3*len(boundaries)*sw.dim*sw.plane)
	hdrs := make([][]float32, 3*len(boundaries)*sw.dim)
	for h := range hdrs {
		hdrs[h] = vals[h*sw.plane : (h+1)*sw.plane : (h+1)*sw.plane]
	}
	planes := func(n int) [][]float32 { return hdrs[n*sw.dim : (n+1)*sw.dim : (n+1)*sw.dim] }
	for b := range sw.cuts {
		sw.cuts[b] = cutPlanes{below: planes(3 * b), orig: planes(3*b + 1), above: planes(3*b + 2)}
	}
	return sw
}

// localGrid is the grid of an n-layer local sub-field.
func (sw *layerSweep) localGrid(n int) *grid.Grid {
	if sw.grids[n] == nil {
		if sw.dim == 2 {
			sw.grids[n] = grid.New2D(sw.nx, n)
		} else {
			sw.grids[n] = grid.New3D(sw.nx, sw.ny, n)
		}
	}
	return sw.grids[n]
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

// newStreams returns empty streams whose eb and quant capacities hold nv
// vertices, so a region or tile of nv vertices never grows them.
func (sw *layerSweep) newStreams(nv int) regionStreams {
	return regionStreams{ebSyms: make([]uint32, 0, sw.ebPerVert*nv), quantSyms: make([]uint32, 0, sw.dim*nv)}
}

// getStreams returns empty streams for a region of nv vertices: pooled
// ones keep their prior capacity, fresh ones are sized for nv vertices.
func (sw *layerSweep) getStreams(nv int) *regionStreams {
	if rs, ok := sw.streamsPool.Get().(*regionStreams); ok {
		rs.reset()
		return rs
	}
	rs := sw.newStreams(nv)
	return &rs
}

func (sw *layerSweep) putStreams(rs *regionStreams) { sw.streamsPool.Put(rs) }

// waveTiles is one region's tile outputs for its wavefront: the streams
// of every tile and, per tile, the stream ends after each of its rows
// (stride slots per tile).
type waveTiles struct {
	tiles  []regionStreams
	rows   []streamEnds
	stride int
}

// waveTilesPool recycles wave tiles across sweeps, not only across the
// regions of one: a resident compress is one sweep, and a one-region field
// would otherwise allocate every tile's streams on every call.
var waveTilesPool sync.Pool

// getWaveTiles returns wave tiles for n tiles of the given plane count
// from the pool; the streams of tiles the pooled set lacks are sized for
// a full tile.
func (sw *layerSweep) getWaveTiles(n, planes int) *waveTiles {
	wt, ok := waveTilesPool.Get().(*waveTiles)
	if !ok {
		wt = &waveTiles{}
	}
	for len(wt.tiles) < n {
		wt.tiles = append(wt.tiles, sw.newStreams(tileSide*tileSide*planes))
	}
	wt.stride = planes * tileSide
	if cap(wt.rows) < n*wt.stride {
		wt.rows = make([]streamEnds, n*wt.stride)
	}
	wt.rows = wt.rows[:n*wt.stride]
	return wt
}

func putWaveTiles(wt *waveTiles) { waveTilesPool.Put(wt) }

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

// savePlanes copies local layer kLocal of every component of f into dst.
func (sw *layerSweep) savePlanes(dst [][]float32, f *field.Field, kLocal int) {
	for c, vals := range f.Components() {
		copy(dst[c], vals[kLocal*sw.plane:(kLocal+1)*sw.plane])
	}
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
			sw.savePlanes(sw.cuts[i].orig, lf, k-base)
		}
	}
	p := sw.prepared(b, r, base, top)
	if glo > 0 {
		p.cutBelow = i - 1
	}
	if ghi < sw.n {
		p.cutAbove = i
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
			sw.cuts[i].bounds = append([]float64(nil), b...)
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
	cut := &sw.cuts[i]
	//lint:allow poolguard ownership transfers through the pipeline to the emitter, which re-pools it
	b := sw.getRegionBuf(3)
	comps := b.local.Components()
	for ci := range comps {
		copy(comps[ci][0:sw.plane], cut.below[ci])
		copy(comps[ci][sw.plane:2*sw.plane], cut.orig[ci])
		copy(comps[ci][2*sw.plane:3*sw.plane], cut.above[ci])
	}
	p := sw.prepared(b, sw.boundaries[i], c-1, c+1)
	p.bounds = cut.bounds
	return p, nil
}

// compressPrepared compresses the region of p on its local sub-field with
// up to inner workers for its tiles. The region box is translated so
// k - lo relations along the partition axis — which is all the
// region-confined predictor and the value-local bound derivation depend
// on — are preserved, making the emitted symbols those of the same region
// of a whole-field working copy. A cancelled ctx stops the region at its
// next tile.
func (sw *layerSweep) compressPrepared(ctx context.Context, p preparedRegion, inner int) (compressedRegion, error) {
	work := &p.buf.work
	copy(work.U, p.local.U)
	copy(work.V, p.local.V)
	copy(work.W, p.local.W)
	lo, hi := p.r.lo[sw.axis], p.r.hi[sw.axis]
	//lint:allow poolguard the success return hands the streams to the sink, which owns them
	rs := sw.getStreams(p.r.numVertices())
	var err error
	if tx, ty := tileCounts(p.r); inner > 1 && tx*ty > 1 {
		err = sw.compressWaves(ctx, p, work, rs, inner, tx, ty)
	} else {
		compressBox(&p, work, &sw.opts, p.r, rs, nil)
	}
	// Boundary bound slabs alias the saved cut bounds and stay out of the
	// pool.
	if p.bounds != nil && !p.r.boundary {
		sw.putBounds(p.bounds)
	}
	if err != nil {
		sw.putStreams(rs)
		return compressedRegion{}, err
	}
	if p.cutAbove >= 0 {
		sw.savePlanes(sw.cuts[p.cutAbove].below, work, hi-1)
	}
	if p.cutBelow >= 0 {
		sw.savePlanes(sw.cuts[p.cutBelow].above, work, lo)
	}
	return compressedRegion{rs: rs, buf: p.buf, lo: lo * sw.plane, hi: hi * sw.plane, gid: p.gid + lo*sw.plane}, nil
}

// tileCounts returns how many tiles region r has along x and y.
func tileCounts(r region) (tx, ty int) {
	return (r.hi[0] - r.lo[0] + tileSide - 1) / tileSide, (r.hi[1] - r.lo[1] + tileSide - 1) / tileSide
}

// tileBox is tile (ti, tj) of region r: tileSide vertices along x and y
// (fewer at the region's far edges) and all of r's planes.
func tileBox(r region, ti, tj int) region {
	box := r
	box.lo[0], box.lo[1] = r.lo[0]+ti*tileSide, r.lo[1]+tj*tileSide
	box.hi[0], box.hi[1] = min(box.lo[0]+tileSide, r.hi[0]), min(box.lo[1]+tileSide, r.hi[1])
	return box
}

// compressWaves compresses the tx×ty tiles of region p.r into out, in
// region raster order: one parallel.Wavefront on up to inner workers runs
// tile (I, J) once tiles (I-1, J) and (I, J-1) are done, and the tiles'
// streams are stitched back together. A done ctx stops the region at its
// next tile.
func (sw *layerSweep) compressWaves(ctx context.Context, p preparedRegion, work *field.Field, out *regionStreams, inner, tx, ty int) error {
	r := p.r
	ey, planes := r.hi[1]-r.lo[1], r.hi[2]-r.lo[2]
	wt := sw.getWaveTiles(tx*ty, planes)
	defer putWaveTiles(wt)
	if err := parallel.Wavefront(ctx, tx, ty, inner, func(ti, tj int) error {
		t := ti + tj*tx
		tile := &wt.tiles[t]
		tile.reset()
		compressBox(&p, work, &sw.opts, tileBox(r, ti, tj), tile, wt.rows[t*wt.stride:(t+1)*wt.stride])
		return nil
	}); err != nil {
		return err
	}

	// Stitch: row (j, k) of the region is row (j, k) of each tile of its
	// tile row, in tile-column order.
	var raw, marks int
	for t := range tx * ty {
		raw += len(wt.tiles[t].raw)
		marks += len(wt.tiles[t].marks)
	}
	out.raw = slices.Grow(out.raw, raw)
	out.marks = slices.Grow(out.marks, marks)
	for k := range planes {
		for y := range ey {
			tj := y / tileSide
			h := min(tileSide, ey-tj*tileSide) // rows of tile row tj
			row := k*h + y - tj*tileSide
			for ti := range tx {
				t := ti + tj*tx
				ends := wt.rows[t*wt.stride:]
				var from streamEnds
				if row > 0 {
					from = ends[row-1]
				}
				out.appendRun(&wt.tiles[t], from, ends[row])
			}
		}
	}
	return nil
}

// emit hands one region to the sink and returns its buffers to the arena.
func (sw *layerSweep) emit(out compressedRegion, sink regionSink) error {
	for c, vals := range out.buf.work.Components() {
		sw.emitHdr[c] = vals[out.lo:out.hi]
	}
	err := sink(out.rs, out.gid, sw.emitHdr)
	sw.putRegionBuf(out.buf)
	return err
}

// run performs the sweep, invoking sink once per region in deterministic
// region order. Layers (and bound layers) are fetched in non-decreasing
// k; a cut plane is fetched once for each slab it neighbors. Each phase
// gives a region's tiles the workers its regions leave idle.
func (sw *layerSweep) run(ctx context.Context, sink regionSink) error {
	work := func(regions int) func(int, preparedRegion) (compressedRegion, error) {
		inner := sw.workers / max(1, min(sw.workers, regions))
		return func(_ int, p preparedRegion) (compressedRegion, error) {
			return sw.compressPrepared(ctx, p, inner)
		}
	}
	emit := func(_ int, out compressedRegion) error { return sw.emit(out, sink) }
	if err := parallel.Pipeline(ctx, len(sw.interiors), sw.workers, sw.window,
		sw.prepareInterior, work(len(sw.interiors)), emit); err != nil {
		return err
	}
	return parallel.Pipeline(ctx, len(sw.boundaries), sw.workers, sw.window,
		sw.prepareBoundary, work(len(sw.boundaries)), emit)
}
