package cpsz

import (
	"context"
	"encoding/binary"
	"math"

	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
	"tspsz/internal/quantizer"
	"tspsz/internal/streamerr"
)

// regionOffsets locates a region's slice of each decoded stream.
type regionOffsets struct {
	eb, quant, raw int
}

func decompress(ctx context.Context, data []byte, workers int, ref *field.Field, c *obs.Collector) (*field.Field, error) {
	// A context dead on arrival wins before any parsing: the caller already
	// gave up, so no byte of the stream should be interpreted (and no
	// stream-fault class fabricated) on its behalf.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	var hdr header
	var ebSyms, quantSyms []uint32
	var raw []byte
	if err := c.Do(obs.StageEntropyDecode, parallel.Workers(workers), int64(len(data)), func() error {
		var err error
		hdr, ebSyms, quantSyms, raw, err = parse(ctx, data, workers, c)
		return err
	}); err != nil {
		return nil, err
	}
	if hdr.temporal && ref == nil {
		return nil, streamerr.Header("cpsz header", "stream is temporally predicted; use DecompressRef")
	}
	if !hdr.temporal {
		ref = nil // ignore a stray reference for self-contained streams
	}
	// Every vertex consumes at least one error-bound symbol in every
	// mode and predictor, so a header claiming more vertices than the
	// stream carries symbols is corrupt. Rejecting here keeps fabricated
	// dimensions from driving a huge field allocation.
	nv := uint64(hdr.nx) * uint64(hdr.ny) // both < 2^32: no overflow
	if hdr.dim == 3 {
		if nv > uint64(len(ebSyms)) {
			return nil, streamerr.Corrupt("cpsz header", "header dims exceed symbol stream")
		}
		nv *= uint64(hdr.nz)
	}
	if nv > uint64(len(ebSyms)) {
		return nil, streamerr.Corrupt("cpsz header", "header dims exceed symbol stream")
	}
	var f *field.Field
	if hdr.dim == 2 {
		if hdr.nx < 2 || hdr.ny < 2 {
			return nil, streamerr.Header("cpsz header", "invalid 2D dims %dx%d", hdr.nx, hdr.ny)
		}
		f = field.New2D(hdr.nx, hdr.ny)
	} else {
		if hdr.nx < 2 || hdr.ny < 2 || hdr.nz < 2 {
			return nil, streamerr.Header("cpsz header", "invalid 3D dims %dx%dx%d", hdr.nx, hdr.ny, hdr.nz)
		}
		f = field.New3D(hdr.nx, hdr.ny, hdr.nz)
	}
	if ref != nil && (ref.Dim() != f.Dim() || ref.NumVertices() != f.NumVertices()) {
		return nil, streamerr.Header("cpsz header", "reference shape differs from stream")
	}
	if hdr.predictor == PredictorInterpolation {
		if err := c.Do(obs.StageReconstruct, 1, int64(f.NumVertices()), func() error {
			return reconstructInterp(f, hdr, ebSyms, quantSyms, raw)
		}); err != nil {
			return nil, err
		}
		return f, nil
	}
	if err := c.Do(obs.StageReconstruct, parallel.Workers(workers), int64(f.NumVertices()), func() error {
		return reconstructLorenzo(ctx, f, ref, hdr, ebSyms, quantSyms, raw, workers)
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// reconstructLorenzo replays the region-parallel Lorenzo encoder: a serial
// offset scan over the symbol streams followed by prediction-independent
// per-region reconstruction.
func reconstructLorenzo(ctx context.Context, f, ref *field.Field, hdr header, ebSyms, quantSyms []uint32, raw []byte, workers int) error {
	interiors, boundaries := partition(f.Grid)
	regions := append(append([]region{}, interiors...), boundaries...)

	// Serial pass: compute per-region stream offsets. Consumption per
	// vertex is fully determined by the symbols, so this is a cheap scan
	// that unlocks parallel reconstruction. Region granularity bounds the
	// cancellation latency of the scan itself.
	offsets := make([]regionOffsets, len(regions))
	nComps := len(f.Components())
	cur := regionOffsets{}
	for ri, r := range regions {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		offsets[ri] = cur
		nv := r.numVertices()
		for v := 0; v < nv; v++ {
			if hdr.mode == ebound.Absolute {
				if cur.eb >= len(ebSyms) {
					return errBadSymbols
				}
				sym := ebSyms[cur.eb]
				cur.eb++
				if sym == absLosslessSym {
					cur.raw += 4 * nComps
					continue
				}
				if sym > absLosslessSym {
					return errBadSymbols
				}
				for c := 0; c < nComps; c++ {
					if cur.quant >= len(quantSyms) {
						return errBadSymbols
					}
					if quantSyms[cur.quant] == quantizer.UnpredictableSym {
						cur.raw += 4
					}
					cur.quant++
				}
				continue
			}
			for c := 0; c < nComps; c++ {
				if cur.eb >= len(ebSyms) {
					return errBadSymbols
				}
				sym := ebSyms[cur.eb]
				cur.eb++
				if sym == relExactSym {
					cur.raw += 4
					continue
				}
				if sym > relBias+relExpCap+1 {
					return errBadSymbols
				}
				if cur.quant >= len(quantSyms) {
					return errBadSymbols
				}
				if quantSyms[cur.quant] == quantizer.UnpredictableSym {
					cur.raw += 4
				}
				cur.quant++
			}
		}
	}
	if cur.eb != len(ebSyms) || cur.quant != len(quantSyms) || cur.raw != len(raw) {
		return errBadSymbols
	}

	// Parallel reconstruction: regions are prediction-independent. For
	// contains worker panics, so a reconstruction bug driven by hostile
	// symbols surfaces as an error instead of killing the process.
	return parallel.For(ctx, len(regions), workers, 1, func(ri int) error {
		return reconstructRegion(f, ref, regions[ri], hdr, ebSyms, quantSyms, raw, offsets[ri])
	})
}

// reconstructRegion replays one region's vertices in row-major order,
// the order the compressor's stitched region streams are in, mirroring
// compressBox exactly.
func reconstructRegion(f, ref *field.Field, r region, hdr header, ebSyms, quantSyms []uint32, raw []byte, off regionOffsets) error {
	nx, ny, _ := f.Grid.Dims()
	nxny := nx * ny
	comps := f.Components()
	var refComps [][]float32
	if ref != nil {
		refComps = ref.Components()
	}
	refOf := func(c int) []float32 {
		if refComps == nil {
			return nil
		}
		return refComps[c]
	}
	for k := r.lo[2]; k < r.hi[2]; k++ {
		for j := r.lo[1]; j < r.hi[1]; j++ {
			for i := r.lo[0]; i < r.hi[0]; i++ {
				idx := i + j*nx + k*nxny
				if hdr.mode == ebound.Absolute {
					sym := ebSyms[off.eb]
					off.eb++
					aeb, lossless := absBoundOf(hdr.errBound, sym)
					for c, vals := range comps {
						if lossless {
							vals[idx] = readFloat(raw, &off.raw)
							continue
						}
						reconstructOne(vals, refOf(c), quantSyms, raw, &off, nx, nxny, i, j, k, idx, r.lo, aeb)
					}
					continue
				}
				for c, vals := range comps {
					sym := ebSyms[off.eb]
					off.eb++
					aeb, exact := relBoundOf(sym)
					if exact {
						vals[idx] = readFloat(raw, &off.raw)
						continue
					}
					reconstructOne(vals, refOf(c), quantSyms, raw, &off, nx, nxny, i, j, k, idx, r.lo, aeb)
				}
			}
		}
	}
	return nil
}

func reconstructOne(vals, ref []float32, quantSyms []uint32, raw []byte, off *regionOffsets, nx, nxny, i, j, k, idx int, lo [3]int, aeb float64) {
	qs := quantSyms[off.quant]
	off.quant++
	if qs == quantizer.UnpredictableSym {
		vals[idx] = readFloat(raw, &off.raw)
		return
	}
	var pred float64
	if ref != nil {
		pred = float64(ref[idx])
	} else {
		pred = quantizer.Predict(vals, nx, nxny, i, j, k, lo)
	}
	vals[idx] = float32(quantizer.Reconstruct(pred, aeb, quantizer.Unzigzag(qs)))
}

func readFloat(raw []byte, pos *int) float32 {
	v := math.Float32frombits(binary.LittleEndian.Uint32(raw[*pos:]))
	*pos += 4
	return v
}
