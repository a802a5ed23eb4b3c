package cpsz

import (
	"context"
	"math"

	"tspsz/internal/bitmap"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
	"tspsz/internal/quantizer"
)

// regionStreams accumulates the per-region output; streams are concatenated
// in region order after both stages, so the result is independent of
// scheduling.
type regionStreams struct {
	ebSyms    []uint32
	quantSyms []uint32
	raw       []byte
	marks     []int // vertices stored fully losslessly
}

func (rs *regionStreams) rawFloat(v float32) {
	bits := math.Float32bits(v)
	rs.raw = append(rs.raw, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
}

func compress(ctx context.Context, f *field.Field, opts Options) (*Result, error) {
	c := opts.Collector
	work := f.Clone()
	interiors, boundaries := partition(f.Grid)
	nRegions := len(interiors) + len(boundaries)
	streams := make([]regionStreams, nRegions)
	lossless := bitmap.New(f.NumVertices())

	if err := c.Do(obs.StagePredictQuant, parallel.Workers(opts.Workers), int64(f.NumVertices()), func() error {
		// Stage 1: slab interiors in parallel. Bound derivation may read
		// boundary-plane vertices, which still hold original values; no
		// other interior is reachable through any adjacent cell, so there
		// are no races and the result is schedule independent.
		if err := parallel.For(ctx, len(interiors), opts.Workers, 1, func(i int) error {
			compressRegion(work, f, interiors[i], opts, &streams[i])
			return nil
		}); err != nil {
			return err
		}
		// Stage 2: boundary planes. Their adjacent cells reach only
		// finalized interiors, and distinct planes share no cells, so
		// planes are mutually independent.
		return parallel.For(ctx, len(boundaries), opts.Workers, 1, func(i int) error {
			compressRegion(work, f, boundaries[i], opts, &streams[len(interiors)+i])
			return nil
		})
	}); err != nil {
		return nil, err
	}

	// The merged stream lengths are known from the per-region streams;
	// allocate each concatenation once and copy into place instead of
	// growing through repeated append reallocation.
	var nEb, nQ, nRaw int
	for i := range streams {
		nEb += len(streams[i].ebSyms)
		nQ += len(streams[i].quantSyms)
		nRaw += len(streams[i].raw)
	}
	ebAll := make([]uint32, 0, nEb)
	qAll := make([]uint32, 0, nQ)
	rawAll := make([]byte, 0, nRaw)
	for i := range streams {
		ebAll = append(ebAll, streams[i].ebSyms...)
		qAll = append(qAll, streams[i].quantSyms...)
		rawAll = append(rawAll, streams[i].raw...)
		for _, idx := range streams[i].marks {
			lossless.Set(idx)
		}
	}
	if c != nil {
		c.Add(obs.CtrLosslessVertices, int64(lossless.Count()))
	}
	var bytes []byte
	if err := c.Do(obs.StageEntropyEncode, parallel.Workers(opts.Workers), int64(len(ebAll)+len(qAll)), func() error {
		var err error
		bytes, err = serialize(ctx, f, opts, ebAll, qAll, rawAll)
		return err
	}); err != nil {
		return nil, err
	}
	return &Result{Bytes: bytes, Decompressed: work, LosslessVertices: lossless}, nil
}

// compressRegion processes one region's vertices in row-major order,
// deriving bounds from the current working field, quantizing residuals
// against region-confined Lorenzo predictions, and overwriting work with
// the decompressed values (Algorithm 1, line 11). Fully lossless vertices
// are recorded in out.marks; the caller merges them into the shared bitmap
// serially to avoid cross-region word races.
func compressRegion(work, orig *field.Field, r region, opts Options, out *regionStreams) {
	nx, ny, _ := orig.Grid.Dims()
	nxny := nx * ny
	comps := orig.Components()
	workComps := work.Components()
	var refComps [][]float32
	if opts.Reference != nil {
		refComps = opts.Reference.Components()
	}
	refOf := func(c int) []float32 {
		if refComps == nil {
			return nil
		}
		return refComps[c]
	}
	radius := int32(quantizer.DefaultRadius)

	for k := r.lo[2]; k < r.hi[2]; k++ {
		for j := r.lo[1]; j < r.hi[1]; j++ {
			for i := r.lo[0]; i < r.hi[0]; i++ {
				idx := i + j*nx + k*nxny
				forced := opts.Lossless != nil && opts.Lossless.Get(idx)
				storeLossless := forced
				var derived float64
				if !storeLossless {
					switch {
					case opts.ebFor != nil:
						if eb, f := opts.ebFor(idx); f {
							storeLossless = true
						} else {
							derived = eb
						}
					case opts.Plain:
						derived = math.Inf(1)
					case opts.SoS:
						derived = ebound.VertexBoundSoS(work, idx, opts.Mode)
					default:
						if eb, hasCP := ebound.VertexBound(work, idx, opts.Mode); hasCP {
							storeLossless = true
						} else {
							derived = eb
						}
					}
				}
				if opts.Mode == ebound.Absolute {
					if !storeLossless {
						target := math.Min(opts.ErrBound, derived)
						sym, aeb := absSymbol(opts.ErrBound, target)
						if sym == absLosslessSym {
							storeLossless = true
						} else {
							out.ebSyms = append(out.ebSyms, sym)
							for c, vals := range comps {
								quantizeOne(out, workComps[c], vals, refOf(c), nx, nxny, i, j, k, idx, r.lo, aeb, radius)
							}
						}
					}
					if storeLossless {
						out.ebSyms = append(out.ebSyms, absLosslessSym)
						for c, vals := range comps {
							out.rawFloat(vals[idx])
							workComps[c][idx] = vals[idx]
						}
						out.marks = append(out.marks, idx)
					}
					continue
				}
				// Relative mode: per-component symbols.
				if storeLossless {
					for c, vals := range comps {
						out.ebSyms = append(out.ebSyms, relExactSym)
						out.rawFloat(vals[idx])
						workComps[c][idx] = vals[idx]
					}
					out.marks = append(out.marks, idx)
					continue
				}
				xi := math.Min(opts.ErrBound, derived)
				allExact := true
				for c, vals := range comps {
					target := xi * math.Abs(float64(vals[idx]))
					sym, aeb := relSymbol(target)
					out.ebSyms = append(out.ebSyms, sym)
					if sym == relExactSym {
						out.rawFloat(vals[idx])
						workComps[c][idx] = vals[idx]
						continue
					}
					allExact = false
					quantizeOne(out, workComps[c], vals, refOf(c), nx, nxny, i, j, k, idx, r.lo, aeb, radius)
				}
				if allExact {
					out.marks = append(out.marks, idx)
				}
			}
		}
	}
}

// quantizeOne quantizes one component of one vertex against its Lorenzo
// prediction, appending either a code symbol or the unpredictable escape
// plus the verbatim value, and stores the reconstruction into work.
func quantizeOne(out *regionStreams, work []float32, vals []float32, ref []float32, nx, nxny, i, j, k, idx int, lo [3]int, aeb float64, radius int32) {
	var pred float64
	if ref != nil {
		pred = float64(ref[idx])
	} else {
		pred = quantizer.Predict(work, nx, nxny, i, j, k, lo)
	}
	code, recon, ok := quantizer.Quantize(float64(vals[idx]), pred, aeb, radius)
	if !ok {
		out.quantSyms = append(out.quantSyms, quantizer.UnpredictableSym)
		out.rawFloat(vals[idx])
		work[idx] = vals[idx]
		return
	}
	out.quantSyms = append(out.quantSyms, quantizer.Zigzag(code))
	work[idx] = float32(recon)
}
