package cpsz

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"tspsz/internal/field"
	"tspsz/internal/grid"
	"tspsz/internal/huffman"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
	"tspsz/internal/streamerr"
)

// The streaming writer produces archives byte-identical to CompressCtx +
// serialize without ever holding the whole field: layers arrive through a
// field.LayerFetcher, regions flow through a bounded parallel.Pipeline
// window, and compressed chunks are sealed once the sweep is done. Chunk
// boundaries (chunkBound) and the shared Huffman tables depend on
// whole-section totals, so the one predict/quantize sweep accumulates
// histograms and section lengths while keeping each region's streams as a
// spill: eb and quant symbols Huffman-coded under a region-local table,
// raw bytes verbatim. Once the section tables exist, the spills are decoded
// in region order into incremental per-section chunk encoders; no layer is
// fetched, no bound derived and no vertex quantized a second time. The raw
// field is never resident; what is resident is O(window) layers of input,
// O(maxSlabs) saved boundary planes, the spill (close to the archive's size
// on real data, at most about one bit per symbol on near-constant data),
// and the compressed chunks themselves (O(archive), typically a small
// fraction of the field).

// streamMaxAxis mirrors field's header cap: each axis must fit the u32
// header fields with room to spare, so the uint32 narrowing in the stream
// header can never truncate.
const streamMaxAxis = 1 << 21

// errStreamUnsupported prefixes the option-validation failures of the
// streaming entry point; the in-memory path keeps supporting everything.
func errStreamUnsupported(what string) error {
	return fmt.Errorf("cpsz: streaming compression does not support %s", what)
}

// preparedRegion is the serial dispatcher's output for one region: a local
// contiguous sub-field holding the region's layers plus its neighbor
// planes (original values), the region box translated into local
// coordinates, and the optional EbFetcher bound slab for the region's own
// vertices.
type preparedRegion struct {
	local  *field.Field
	r      region
	bounds []float64 // nil without an EbFetcher
	// Global z of the cut planes this region neighbors (-1 if none);
	// the worker saves the reconstructed planes the boundary pass needs.
	cutBelow, cutAbove int
}

// compressedRegion is a worker's output: the region's symbol streams plus
// the reconstructed planes adjacent to its cuts. rs comes from the sweep's
// stream pool; the emitter returns it after the consume callback, which must
// not retain its slices.
type compressedRegion struct {
	rs *regionStreams
	// reconForAbove is the reconstruction of plane cutAbove-1 (this
	// region's top plane); reconForBelow of plane cutBelow+1 (its bottom
	// plane).
	reconForAbove, reconForBelow [][]float32
}

// layerSweep runs the full region sweep (interiors ascending, then
// boundary planes ascending — the exact order the in-memory path
// concatenates region streams) against a LayerFetcher, handing each
// region's streams to a serial consume callback. Fetching is serial on the
// calling goroutine, compressRegion runs on the worker pool, and
// consumption is serial in region order, with at most `window` regions in
// flight.
type layerSweep struct {
	nx, ny, nz int
	plane      int // nx*ny
	fetch      field.LayerFetcher
	eb         field.EbFetcher
	opts       Options
	interiors  []region
	boundaries []region
	workers    int
	window     int

	// Planes saved for the boundary pass, keyed by global cut z. orig and
	// bounds are written by the serial prepare stage, the recon maps by
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
	// Ownership: a local field passes prepare→work and is re-pooled by the
	// worker once compressRegion is done with it; a regionStreams passes
	// work→emit and is re-pooled by the serial emitter after the consume
	// callback; interior bound slabs are re-pooled by the worker (boundary
	// regions alias the saved-plane map and are never pooled). maxLocalNz
	// sizes fresh field allocations so pooled buffers always fit any region.
	fieldPool   sync.Pool
	boundsPool  sync.Pool
	streamsPool sync.Pool
	maxLocalNz  int
}

func newLayerSweep(nx, ny, nz int, fetch field.LayerFetcher, eb field.EbFetcher, opts Options) *layerSweep {
	g := grid.New3D(nx, ny, nz)
	interiors, boundaries := partition(g)
	workers := parallel.Workers(opts.Workers)
	window := workers
	if window < 2 {
		window = 2
	}
	if window > len(interiors) {
		window = len(interiors)
	}
	maxLocalNz := 3 // boundary regions are always 3 planes
	for _, r := range interiors {
		if n := r.hi[2] - r.lo[2] + 2; n > maxLocalNz {
			maxLocalNz = n
		}
	}
	return &layerSweep{
		nx: nx, ny: ny, nz: nz, plane: nx * ny,
		fetch: fetch, eb: eb, opts: opts,
		interiors: interiors, boundaries: boundaries,
		workers: workers, window: window,
		orig:       make(map[int][][]float32),
		reconBelow: make(map[int][][]float32),
		reconAbove: make(map[int][][]float32),
		bounds:     make(map[int][]float64),
		maxLocalNz: maxLocalNz,
	}
}

// getLocalField returns an nx×ny×localNz sub-field from the pool, allocated
// at the sweep's maximum local extent so any pooled buffer fits any region.
// The caller must overwrite every plane it reads (all callers copy full
// coverage), so recycled contents never leak into the output.
func (sw *layerSweep) getLocalField(localNz int) *field.Field {
	n := localNz * sw.plane
	if f, ok := sw.fieldPool.Get().(*field.Field); ok {
		f.Grid = grid.New3D(sw.nx, sw.ny, localNz)
		f.U, f.V, f.W = f.U[:n], f.V[:n], f.W[:n]
		return f
	}
	c := sw.maxLocalNz * sw.plane
	return &field.Field{
		Grid: grid.New3D(sw.nx, sw.ny, localNz),
		U:    make([]float32, n, c), V: make([]float32, n, c), W: make([]float32, n, c),
	}
}

func (sw *layerSweep) putLocalField(f *field.Field) { sw.fieldPool.Put(f) }

// getBounds returns an n-element bound slab from the pool; fresh slabs are
// sized for the largest region so pooled ones always fit.
func (sw *layerSweep) getBounds(n int) []float64 {
	if p, ok := sw.boundsPool.Get().(*[]float64); ok {
		return (*p)[:n]
	}
	return make([]float64, n, sw.maxLocalNz*sw.plane)
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
	if len(planes) != 3 {
		return streamerr.Header("layer fetch", "layer %d: fetcher returned %d components, want 3", k, len(planes))
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

// clonePlanes copies one local z-plane of every component.
func (sw *layerSweep) clonePlanes(f *field.Field, kLocal int) [][]float32 {
	comps := f.Components()
	out := make([][]float32, len(comps))
	for c, vals := range comps {
		p := make([]float32, sw.plane)
		copy(p, vals[kLocal*sw.plane:(kLocal+1)*sw.plane])
		out[c] = p
	}
	return out
}

// prepareInterior fetches interior i's layers (plus its cut-plane
// neighbors) into a local sub-field, saving original cut planes and bound
// slabs for the boundary pass. Layer fetch order is non-decreasing across
// the whole interior phase.
func (sw *layerSweep) prepareInterior(i int) (preparedRegion, error) {
	r := sw.interiors[i]
	glo, ghi := r.lo[2], r.hi[2]
	base := glo
	if glo > 0 {
		base = glo - 1
	}
	top := ghi - 1
	if ghi < sw.nz {
		top = ghi
	}
	// Ownership transfer: the local field (and the bound slab below) ride
	// in the prepared region to compressPrepared, which re-pools both; the
	// error paths re-pool here.
	//lint:allow poolguard the success return hands lf to compressPrepared, which re-pools it
	lf := sw.getLocalField(top - base + 1)
	fail := func(err error) (preparedRegion, error) {
		sw.putLocalField(lf)
		return preparedRegion{}, err
	}
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
		if k == ghi && ghi < sw.nz {
			// This is the cut plane above; the boundary pass needs its
			// original values after the interiors have overwritten work.
			sw.orig[ghi] = sw.clonePlanes(lf, k-base)
		}
	}
	p := preparedRegion{
		local:    lf,
		r:        region{lo: [3]int{0, 0, glo - base}, hi: [3]int{sw.nx, sw.ny, ghi - base}},
		cutBelow: -1, cutAbove: -1,
	}
	if glo > 0 {
		p.cutBelow = glo - 1
	}
	if ghi < sw.nz {
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
		if ghi < sw.nz {
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

// prepareBoundary assembles the 3-plane local field of boundary i from the
// planes the interior phase saved: recon(c-1), orig(c), recon(c+1) —
// exactly what the in-memory work field holds at stage 2.
func (sw *layerSweep) prepareBoundary(i int) (preparedRegion, error) {
	c := sw.boundaries[i].lo[2]
	below, og, above := sw.reconBelow[c], sw.orig[c], sw.reconAbove[c]
	if below == nil || og == nil || above == nil {
		return preparedRegion{}, errors.New("cpsz: internal: boundary planes missing from interior sweep")
	}
	//lint:allow poolguard ownership transfers through the prepared region to compressPrepared, which re-pools it
	lf := sw.getLocalField(3)
	comps := lf.Components()
	for ci := range comps {
		copy(comps[ci][0:sw.plane], below[ci])
		copy(comps[ci][sw.plane:2*sw.plane], og[ci])
		copy(comps[ci][2*sw.plane:3*sw.plane], above[ci])
	}
	p := preparedRegion{
		local:    lf,
		r:        region{lo: [3]int{0, 0, 1}, hi: [3]int{sw.nx, sw.ny, 2}, boundary: true},
		cutBelow: -1, cutAbove: -1,
	}
	if sw.eb != nil {
		p.bounds = sw.bounds[c]
	}
	return p, nil
}

// compressPrepared runs compressRegion verbatim on the local sub-field.
// The region box is translated so k - lo[2] relations — which is all the
// region-confined predictor and the value-local bound derivation depend on
// — are preserved, making the emitted symbols bit-identical to the
// in-memory path's.
func (sw *layerSweep) compressPrepared(p preparedRegion) (compressedRegion, error) {
	_, _, localNz := p.local.Grid.Dims()
	work := sw.getLocalField(localNz)
	copy(work.U, p.local.U)
	copy(work.V, p.local.V)
	copy(work.W, p.local.W)
	opts := sw.opts
	if p.bounds != nil {
		off := p.r.lo[2] * sw.plane
		bounds := p.bounds
		opts.ebFor = func(idx int) (float64, bool) {
			b := bounds[idx-off]
			if b < 0 {
				return 0, true
			}
			return b, false
		}
	}
	out := compressedRegion{rs: sw.getStreams()}
	compressRegion(work, p.local, p.r, opts, out.rs)
	if p.cutAbove >= 0 {
		out.reconForAbove = sw.clonePlanes(work, p.r.hi[2]-1)
	}
	if p.cutBelow >= 0 {
		out.reconForBelow = sw.clonePlanes(work, p.r.lo[2])
	}
	// The region is fully encoded: its input and reconstruction buffers go
	// back to the arena (the recon planes the boundary pass needs were
	// cloned out above). Boundary bound slabs alias the saved-plane map and
	// stay out of the pool.
	sw.putLocalField(p.local)
	sw.putLocalField(work)
	if p.bounds != nil && !p.r.boundary {
		sw.putBounds(p.bounds)
	}
	return out, nil
}

// run performs the sweep, invoking consume once per region in
// deterministic region order. Layers (and bound layers) are fetched in
// non-decreasing k; a cut plane is fetched once for each slab it
// neighbors.
func (sw *layerSweep) run(ctx context.Context, consume func(rs *regionStreams) error) error {
	err := parallel.Pipeline(ctx, len(sw.interiors), sw.workers, sw.window,
		sw.prepareInterior,
		func(i int, p preparedRegion) (compressedRegion, error) { return sw.compressPrepared(p) },
		func(i int, out compressedRegion) error {
			r := sw.interiors[i]
			if out.reconForAbove != nil {
				sw.reconBelow[r.hi[2]] = out.reconForAbove
			}
			if out.reconForBelow != nil {
				sw.reconAbove[r.lo[2]-1] = out.reconForBelow
			}
			err := consume(out.rs)
			sw.putStreams(out.rs)
			return err
		})
	if err != nil {
		return err
	}
	return parallel.Pipeline(ctx, len(sw.boundaries), sw.workers, sw.window,
		sw.prepareBoundary,
		func(i int, p preparedRegion) (compressedRegion, error) { return sw.compressPrepared(p) },
		func(i int, out compressedRegion) error {
			err := consume(out.rs)
			sw.putStreams(out.rs)
			return err
		})
}

// regionSpill is one region's streams, held from the sweep until the
// section tables exist: eb and quant symbols as huffman.Encode streams under
// a region-local table, raw bytes verbatim.
type regionSpill struct {
	eb, quant, raw []byte
}

// streamSpill keeps the sweep's region streams in region order. A Huffman
// code spends at least one bit per symbol, so the spill stays close to the
// archive's size on real data and near one bit per symbol on near-constant
// data: 1/24 of the field in absolute mode, 1/16 in relative mode.
type streamSpill struct {
	regions []regionSpill
	bytes   int64 // total spilled bytes (obs.CtrBytesStreamSpill)
}

func (sp *streamSpill) add(rs *regionStreams) error {
	eb, err := huffman.Encode(rs.ebSyms)
	if err != nil {
		return err
	}
	quant, err := huffman.Encode(rs.quantSyms)
	if err != nil {
		return err
	}
	r := regionSpill{eb: eb, quant: quant, raw: bytes.Clone(rs.raw)}
	sp.regions = append(sp.regions, r)
	sp.bytes += int64(len(r.eb) + len(r.quant) + len(r.raw))
	return nil
}

// drain decodes the regions in order into symbol buffers reused across
// regions, hands each region to feed and drops it once fed, checking ctx
// between regions.
func (sp *streamSpill) drain(ctx context.Context, feed func(ebSyms, quantSyms []uint32, raw []byte) error) error {
	var ebBuf, quantBuf []uint32
	for i := range sp.regions {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		r := &sp.regions[i]
		var err error
		if ebBuf, err = unspill(r.eb, ebBuf); err != nil {
			return err
		}
		if quantBuf, err = unspill(r.quant, quantBuf); err != nil {
			return err
		}
		if err := feed(ebBuf, quantBuf, r.raw); err != nil {
			return err
		}
		*r = regionSpill{}
	}
	return nil
}

// unspill decodes one huffman.Encode stream into buf, which grows only when
// a region holds more symbols than any region before it.
func unspill(data []byte, buf []uint32) ([]uint32, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > 8*uint64(len(data)) {
		return nil, errors.New("cpsz: internal: malformed stream spill")
	}
	if n == 0 {
		return buf[:0], nil
	}
	t, consumed, err := huffman.ParseTable(data[k:], n)
	if err != nil {
		return nil, err
	}
	if uint64(cap(buf)) < n {
		buf = make([]uint32, n)
	}
	buf = buf[:n]
	return buf, t.DecodeChunk(data[k+consumed:], buf)
}

// symSectionEncoder seals fixed-extent symbol chunks incrementally as
// region streams arrive. Chunk boundaries are the same chunkBound
// partition the in-memory serialize uses — they depend on the swept
// section total, never on how symbols arrive — so the sealed chunks are
// byte-identical to the batch path's.
type symSectionEncoder struct {
	table   *huffman.Table
	n, cc   int
	ci      int
	pending []uint32
	chunks  []encChunk
}

func newSymSectionEncoder(table *huffman.Table, n int) *symSectionEncoder {
	e := &symSectionEncoder{table: table, n: n}
	if n > 0 {
		e.cc = chunkCount(n, chunkSymbols)
		e.chunks = make([]encChunk, 0, e.cc)
	}
	return e
}

func (e *symSectionEncoder) feed(syms []uint32) error {
	for len(syms) > 0 {
		if e.ci >= e.cc {
			return errors.New("cpsz: internal: section symbols exceed the swept total")
		}
		lo, hi := chunkBound(e.n, e.cc, e.ci)
		take := (hi - lo) - len(e.pending)
		if take > len(syms) {
			take = len(syms)
		}
		e.pending = append(e.pending, syms[:take]...)
		syms = syms[take:]
		if len(e.pending) == hi-lo {
			ec, err := encodeSymChunk(e.table, e.pending)
			if err != nil {
				return err
			}
			e.chunks = append(e.chunks, ec)
			e.pending = e.pending[:0]
			e.ci++
		}
	}
	return nil
}

func (e *symSectionEncoder) finish() error {
	if e.ci != e.cc || len(e.pending) != 0 {
		return errors.New("cpsz: internal: section symbols short of the swept total")
	}
	return nil
}

// rawSectionEncoder is the byte-stream counterpart for the verbatim-float
// section.
type rawSectionEncoder struct {
	n, cc   int
	ci      int
	pending []byte
	chunks  []encChunk
}

func newRawSectionEncoder(n int) *rawSectionEncoder {
	e := &rawSectionEncoder{n: n}
	if n > 0 {
		e.cc = chunkCount(n, chunkRawBytes)
		e.chunks = make([]encChunk, 0, e.cc)
	}
	return e
}

func (e *rawSectionEncoder) feed(raw []byte) error {
	for len(raw) > 0 {
		if e.ci >= e.cc {
			return errors.New("cpsz: internal: raw section exceeds the swept total")
		}
		lo, hi := chunkBound(e.n, e.cc, e.ci)
		take := (hi - lo) - len(e.pending)
		if take > len(raw) {
			take = len(raw)
		}
		e.pending = append(e.pending, raw[:take]...)
		raw = raw[take:]
		if len(e.pending) == hi-lo {
			ec, err := encodeRawChunk(e.pending)
			if err != nil {
				return err
			}
			e.chunks = append(e.chunks, ec)
			e.pending = e.pending[:0]
			e.ci++
		}
	}
	return nil
}

func (e *rawSectionEncoder) finish() error {
	if e.ci != e.cc || len(e.pending) != 0 {
		return errors.New("cpsz: internal: raw section short of the swept total")
	}
	return nil
}

// crcCountWriter forwards to w while keeping the running CRC32C and byte
// count the trailer needs; the whole stream is written exactly once, never
// buffered for a second checksum pass.
type crcCountWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (cw *crcCountWriter) write(p []byte) error {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	cw.n += int64(n)
	if err != nil {
		return err
	}
	if n != len(p) {
		return io.ErrShortWrite
	}
	return nil
}

// writeSymSection streams one encoded symbol section: uvarint count,
// codebook, chunk directory, then the payloads (each pooled buffer is
// released as soon as it is written).
func writeSymSection(cw *crcCountWriter, e *symSectionEncoder, c *obs.Collector) error {
	head := binary.AppendUvarint(nil, uint64(e.n))
	if e.n > 0 {
		head = e.table.AppendTable(head)
		head = appendChunkDirectory(head, e.chunks)
	}
	if err := cw.write(head); err != nil {
		return err
	}
	if err := writeChunkPayloads(cw, e.chunks); err != nil {
		return err
	}
	if e.n > 0 {
		c.Add(obs.CtrChunksEncoded, int64(e.cc))
	}
	return nil
}

// writeRawSection streams the raw section (same layout minus the
// codebook).
func writeRawSection(cw *crcCountWriter, e *rawSectionEncoder, c *obs.Collector) error {
	head := binary.AppendUvarint(nil, uint64(e.n))
	if e.n > 0 {
		head = appendChunkDirectory(head, e.chunks)
	}
	if err := cw.write(head); err != nil {
		return err
	}
	if err := writeChunkPayloads(cw, e.chunks); err != nil {
		return err
	}
	if e.n > 0 {
		c.Add(obs.CtrChunksEncoded, int64(e.cc))
	}
	return nil
}

// writeChunkPayloads writes every payload in order, returning each pooled
// buffer exactly once whether or not its write succeeds.
func writeChunkPayloads(cw *crcCountWriter, chunks []encChunk) error {
	for i := range chunks {
		err := cw.write(chunks[i].payload)
		putChunkBuf(chunks[i].payload)
		chunks[i].payload = nil
		if err != nil {
			return err
		}
	}
	return nil
}

// CompressStream encodes an nx×ny×nz 3-component field supplied layer by
// layer through fetch, writing a stream to w that is byte-identical to
// what CompressCtx would produce for the same data and options, at every
// worker count. eb optionally supplies precomputed per-vertex bounds (the
// effective bound is min(opts.ErrBound-derived, fetched); negative forces
// lossless); a nil eb uses the same topology-derived bounds as the
// in-memory path. Both fetchers are swept once in non-decreasing layer
// order: each layer of fetch is requested at most twice in a row (a cut
// plane neighbors two slabs), each layer of eb exactly once.
//
// Peak memory is O(window·slab + maxSlabs·plane + spill + archive), never
// O(field); the spill is close to the archive's size on real data and at
// most about one bit per symbol on near-constant data. Unsupported on this
// path (use CompressCtx): 2D fields, SoS bounds, interpolation prediction,
// forced-lossless bitmaps, and temporal references. Returns the number of
// bytes written.
func CompressStream(ctx context.Context, w io.Writer, nx, ny, nz int, fetch field.LayerFetcher, eb field.EbFetcher, opts Options) (written int64, err error) {
	defer streamerr.CancelGuard("cpsz", &err)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	if w == nil {
		return 0, errors.New("cpsz: CompressStream requires a writer")
	}
	if fetch == nil {
		return 0, errors.New("cpsz: CompressStream requires a layer fetcher")
	}
	if !(opts.ErrBound > 0) {
		return 0, fmt.Errorf("cpsz: error bound must be positive, got %v", opts.ErrBound)
	}
	if nx < 2 || ny < 2 || nz < 2 || nx > streamMaxAxis || ny > streamMaxAxis || nz > streamMaxAxis {
		return 0, streamerr.Header("cpsz stream", "implausible dims %dx%dx%d", nx, ny, nz)
	}
	switch {
	case opts.SoS:
		return 0, errStreamUnsupported("SoS bounds")
	case opts.Predictor != PredictorLorenzo:
		return 0, errStreamUnsupported("the interpolation predictor")
	case opts.Lossless != nil:
		return 0, errStreamUnsupported("a forced-lossless bitmap")
	case opts.Reference != nil:
		return 0, errStreamUnsupported("temporal references")
	}
	opts.ebFor = nil
	c := opts.Collector
	nv := int64(nx) * int64(ny) * int64(nz)
	c.Add(obs.CtrBytesIn, 4*3*nv)
	workers := parallel.Workers(opts.Workers)

	sw := newLayerSweep(nx, ny, nz, fetch, eb, opts)

	// The one sweep: accumulate per-section histograms and totals, and
	// spill each region's streams for the chunk encoders below.
	var ebHist, quantHist huffman.Histogram
	var nRaw, nMarks int64
	var sp streamSpill
	if err := c.Do(obs.StagePredictQuant, workers, nv, func() error {
		return sw.run(ctx, func(rs *regionStreams) error {
			ebHist.Observe(rs.ebSyms)
			quantHist.Observe(rs.quantSyms)
			nRaw += int64(len(rs.raw))
			nMarks += int64(len(rs.marks))
			return sp.add(rs)
		})
	}); err != nil {
		return 0, err
	}
	c.Add(obs.CtrLosslessVertices, nMarks)
	c.Add(obs.CtrBytesStreamSpill, sp.bytes)

	var ebTable, quantTable *huffman.Table
	if err := c.Do(obs.StageHistogram, 1, int64(ebHist.Total()), func() error {
		ebTable = huffman.TableFromHistogram(&ebHist)
		return nil
	}); err != nil {
		return 0, err
	}
	if err := c.Do(obs.StageHistogram, 1, int64(quantHist.Total()), func() error {
		quantTable = huffman.TableFromHistogram(&quantHist)
		return nil
	}); err != nil {
		return 0, err
	}

	// Feed the spill to incremental chunk encoders in region order, then
	// the single write-out. Encoded chunks (O(archive)) are the only state
	// buffered to the end; any failure re-pools every sealed payload.
	ebEnc := newSymSectionEncoder(ebTable, int(ebHist.Total()))
	quantEnc := newSymSectionEncoder(quantTable, int(quantHist.Total()))
	rawEnc := newRawSectionEncoder(int(nRaw))
	defer func() {
		if err != nil {
			repoolChunks(ebEnc.chunks)
			repoolChunks(quantEnc.chunks)
			repoolChunks(rawEnc.chunks)
		}
	}()
	cw := &crcCountWriter{w: w}
	if err := c.Do(obs.StageEntropyEncode, workers, int64(ebHist.Total()+quantHist.Total()), func() error {
		if err := sp.drain(ctx, func(ebSyms, quantSyms []uint32, raw []byte) error {
			if err := ebEnc.feed(ebSyms); err != nil {
				return err
			}
			if err := quantEnc.feed(quantSyms); err != nil {
				return err
			}
			return rawEnc.feed(raw)
		}); err != nil {
			return err
		}
		for _, fin := range []func() error{ebEnc.finish, quantEnc.finish, rawEnc.finish} {
			if err := fin(); err != nil {
				return err
			}
		}
		return writeStream(cw, sw, opts, ebEnc, quantEnc, rawEnc, c)
	}); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// writeStream emits header, sections, and trailer through the rolling-CRC
// writer, charging the same byte-partition counters as serialize.
func writeStream(cw *crcCountWriter, sw *layerSweep, opts Options, ebEnc, quantEnc *symSectionEncoder, rawEnc *rawSectionEncoder, c *obs.Collector) error {
	hdr := appendHeader(make([]byte, 0, sealedHeaderBytes), header{
		dim: 3, nx: sw.nx, ny: sw.ny, nz: sw.nz, mode: opts.Mode, predictor: opts.Predictor, errBound: opts.ErrBound,
	})
	if err := cw.write(hdr); err != nil {
		return err
	}
	c.Add(obs.CtrBytesStreamHeader, int64(len(hdr)))

	mark := cw.n
	if err := writeSymSection(cw, ebEnc, c); err != nil {
		return err
	}
	c.Add(obs.CtrBytesSectionEb, cw.n-mark)
	mark = cw.n
	if err := writeSymSection(cw, quantEnc, c); err != nil {
		return err
	}
	c.Add(obs.CtrBytesSectionQuant, cw.n-mark)
	mark = cw.n
	if err := writeRawSection(cw, rawEnc, c); err != nil {
		return err
	}
	c.Add(obs.CtrBytesSectionRaw, cw.n-mark)

	var tr [8]byte
	binary.LittleEndian.PutUint64(tr[:], uint64(cw.n))
	if err := cw.write(tr[:]); err != nil {
		return err
	}
	var tc [4]byte
	binary.LittleEndian.PutUint32(tc[:], cw.crc)
	if err := cw.write(tc[:]); err != nil {
		return err
	}
	c.Add(obs.CtrBytesStreamTrailer, trailerBytes)
	c.Add(obs.CtrBytesOut, cw.n)
	return nil
}
