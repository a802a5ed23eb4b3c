package cpsz

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tspsz/internal/field"
	"tspsz/internal/grid"
	"tspsz/internal/huffman"
	"tspsz/internal/obs"
	"tspsz/internal/streamerr"
)

// The streaming writer runs the engine of the in-memory path — the layer
// sweep and the section sealer — against a caller's LayerFetcher, so its
// archives are byte-identical to CompressCtx's without ever holding the
// whole field. The two differ only in where a region's streams wait until
// the section tables exist: chunk boundaries (chunkBound) and the shared
// Huffman tables depend on whole-section totals, and the resident path
// holds each region's streams as they are, while this one holds a spill:
// eb and quant symbols Huffman-coded under a region-local table, raw bytes
// verbatim. The sealer decodes one region's run at a time in region order;
// no layer is fetched, no bound derived and no vertex quantized a second
// time. What is resident is O(window) layers of input, O(maxSlabs) saved
// boundary planes, the spill (close to the archive's size on real data, at
// most about one bit per symbol on near-constant data), and the encoded
// chunks of one section at a time.

// streamMaxAxis mirrors field's header cap: each axis must fit the u32
// header fields with room to spare, so the uint32 narrowing in the stream
// header can never truncate.
const streamMaxAxis = 1 << 21

// errStreamUnsupported prefixes the option-validation failures of the
// streaming entry point; the in-memory path keeps supporting everything.
func errStreamUnsupported(what string) error {
	return fmt.Errorf("cpsz: streaming compression does not support %s", what)
}

// regionSpill is one region's streams, held from the sweep until the
// section tables exist: eb and quant symbols as huffman.Encode streams under
// a region-local table, raw bytes verbatim.
type regionSpill struct {
	syms [2][]byte // eb, quant
	raw  []byte
}

// streamSpill keeps the sweep's region streams in region order. A Huffman
// code spends at least one bit per symbol, so the spill stays close to the
// archive's size on real data and near one bit per symbol on near-constant
// data: 1/24 of the field in absolute mode, 1/16 in relative mode. As a
// regionRuns it decodes one region's run at a time into a buffer reused
// across regions (so its runs are not stable) and drops each spilled run
// once read.
type streamSpill struct {
	regions []regionSpill
	bytes   int64 // total spilled bytes (obs.CtrBytesStreamSpill)
	buf     []uint32
}

func (sp *streamSpill) add(rs *regionStreams) error {
	var r regionSpill
	for si, syms := range [2][]uint32{rs.ebSyms, rs.quantSyms} {
		enc, err := huffman.Encode(syms)
		if err != nil {
			return err
		}
		r.syms[si] = enc
	}
	r.raw = bytes.Clone(rs.raw)
	sp.regions = append(sp.regions, r)
	sp.bytes += int64(len(r.syms[0]) + len(r.syms[1]) + len(r.raw))
	return nil
}

func (sp *streamSpill) syms(si, r int) ([]uint32, error) {
	if r >= len(sp.regions) {
		return nil, errRunsShort
	}
	var err error
	sp.buf, err = unspill(sp.regions[r].syms[si], sp.buf)
	sp.regions[r].syms[si] = nil
	return sp.buf, err
}

func (sp *streamSpill) raw(r int) ([]byte, error) {
	if r >= len(sp.regions) {
		return nil, errRunsShort
	}
	raw := sp.regions[r].raw
	sp.regions[r].raw = nil
	return raw, nil
}

func (sp *streamSpill) stable() bool { return false }

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
// Peak memory is O(window·slab + maxSlabs·plane + spill + section), never
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
	if err := opts.validate(); err != nil {
		return 0, err
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
	c := opts.Collector
	nv := int64(nx) * int64(ny) * int64(nz)
	c.Add(obs.CtrBytesIn, 4*3*nv)
	sw := newLayerSweep(grid.New3D(nx, ny, nz), fetch, eb, opts)

	// The one sweep: accumulate the section totals and spill each region's
	// streams for the sealer.
	var tot sectionTotals
	var sp streamSpill
	if err := c.Do(obs.StagePredictQuant, sw.workers, nv, func() error {
		return sw.run(ctx, func(rs *regionStreams, _ int, _ [][]float32) error {
			tot.observe(rs)
			err := sp.add(rs)
			sw.putStreams(rs)
			return err
		})
	}); err != nil {
		return 0, err
	}
	c.Add(obs.CtrLosslessVertices, tot.marks)
	c.Add(obs.CtrBytesStreamSpill, sp.bytes)
	hdr := header{dim: 3, nx: nx, ny: ny, nz: nz, mode: opts.Mode, predictor: opts.Predictor, errBound: opts.ErrBound}
	return seal(ctx, w, hdr, &tot, &sp, sw.workers, c)
}
