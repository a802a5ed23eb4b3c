package cpsz

import (
	"bytes"
	"context"
	"math"

	"tspsz/internal/bitmap"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/obs"
	"tspsz/internal/quantizer"
)

// regionStreams accumulates the per-region output; streams are concatenated
// in region order when the sections are sealed, so the result is
// independent of scheduling.
type regionStreams struct {
	ebSyms    []uint32
	quantSyms []uint32
	raw       []byte
	marks     []int // global ids of the vertices stored fully losslessly
}

func (rs *regionStreams) rawFloat(v float32) {
	bits := math.Float32bits(v)
	rs.raw = append(rs.raw, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
}

// reset empties the streams, keeping their capacity.
func (rs *regionStreams) reset() {
	rs.ebSyms = rs.ebSyms[:0]
	rs.quantSyms = rs.quantSyms[:0]
	rs.raw = rs.raw[:0]
	rs.marks = rs.marks[:0]
}

// streamEnds holds the lengths of a regionStreams' eb, quant, raw and
// marks streams at one point of its sweep.
type streamEnds [4]int

func (rs *regionStreams) ends() streamEnds {
	return streamEnds{len(rs.ebSyms), len(rs.quantSyms), len(rs.raw), len(rs.marks)}
}

// appendRun appends the part of src's streams between the ends a and b.
func (rs *regionStreams) appendRun(src *regionStreams, a, b streamEnds) {
	rs.ebSyms = append(rs.ebSyms, src.ebSyms[a[0]:b[0]]...)
	rs.quantSyms = append(rs.quantSyms, src.quantSyms[a[1]:b[1]]...)
	rs.raw = append(rs.raw, src.raw[a[2]:b[2]]...)
	rs.marks = append(rs.marks, src.marks[a[3]:b[3]]...)
}

// compressResident is the Lorenzo path over a resident field: the layer
// sweep runs over zero-copy views of f along the partition axis, its serial
// emit stage fills the reconstruction and the lossless bitmap, and each
// region's streams are held as they are until the section tables exist.
func compressResident(ctx context.Context, f *field.Field, opts Options) (*Result, error) {
	c := opts.Collector
	nv := f.NumVertices()
	dec := &field.Field{Grid: f.Grid, U: make([]float32, nv), V: make([]float32, nv)}
	if f.W != nil {
		dec.W = make([]float32, nv)
	}
	decComps := dec.Components()
	lossless := bitmap.New(nv)
	sw := newLayerSweep(f.Grid, field.Layers(f), nil, opts)
	var tot sectionTotals
	var held heldStreams
	if err := c.Do(obs.StagePredictQuant, sw.workers, int64(nv), func() error {
		return sw.run(ctx, func(rs *regionStreams, gid int, recon [][]float32) error {
			for ci, vals := range recon {
				copy(decComps[ci][gid:gid+len(vals)], vals)
			}
			for _, idx := range rs.marks {
				lossless.Set(idx)
			}
			tot.observe(rs)
			held = append(held, rs)
			return nil
		})
	}); err != nil {
		return nil, err
	}
	c.Add(obs.CtrLosslessVertices, tot.marks)
	return sealResult(ctx, f, opts, &tot, held, dec, lossless)
}

// sealResult seals the held streams of an in-memory encode into Result.
func sealResult(ctx context.Context, f *field.Field, opts Options, tot *sectionTotals, held heldStreams, dec *field.Field, lossless *bitmap.Bitmap) (*Result, error) {
	nx, ny, nz := f.Grid.Dims()
	hdr := header{
		dim: f.Dim(), nx: nx, ny: ny, nz: nz, mode: opts.Mode, predictor: opts.Predictor,
		temporal: opts.Reference != nil, errBound: opts.ErrBound,
	}
	var buf bytes.Buffer
	buf.Grow(sealedHeaderBytes + tot.nRaw/2 + int(tot.hist[0].Total()+tot.hist[1].Total())/4)
	if _, err := seal(ctx, &buf, hdr, tot, held, opts.Workers, opts.Collector); err != nil {
		return nil, err
	}
	return &Result{Bytes: buf.Bytes(), Decompressed: dec, LosslessVertices: lossless}, nil
}

// compressBox compresses the vertices of box, a sub-box of region p.r
// spanning all of the region's planes, in row-major order: it derives
// bounds from the current working field, quantizes residuals against
// Lorenzo predictions confined to the region (not the box) or against the
// reference frame, and overwrites work with the decompressed values
// (Algorithm 1, line 11). p.local holds the original values and work the
// working values of the region's planes plus the neighbor planes its cells
// reach; p.gid translates local vertex ids to global ones, at which the
// forced-lossless bitmap is read and fully lossless vertices are recorded
// in out.marks. With box == p.r this is the raster sweep of the whole
// region; a region tile passes rows, and after each of its rows (one
// (j, k) pair) rows[n] receives the ends of out's streams.
func compressBox(p *preparedRegion, work *field.Field, opts *Options, box region, out *regionStreams, rows []streamEnds) {
	r := p.r
	nx, ny, _ := p.local.Grid.Dims()
	nxny := nx * ny
	first := r.lo[0] + r.lo[1]*nx + r.lo[2]*nxny // the region's first local vertex
	comps := p.local.Components()
	workComps := work.Components()
	var refComps [][]float32
	if p.ref != nil {
		refComps = p.ref.Components()
	}
	refOf := func(c int) []float32 {
		if refComps == nil {
			return nil
		}
		return refComps[c]
	}
	radius := int32(quantizer.DefaultRadius)

	row := 0
	for k := box.lo[2]; k < box.hi[2]; k++ {
		for j := box.lo[1]; j < box.hi[1]; j++ {
			for i := box.lo[0]; i < box.hi[0]; i++ {
				idx := i + j*nx + k*nxny
				forced := opts.Lossless != nil && opts.Lossless.Get(p.gid+idx)
				storeLossless := forced
				var derived float64
				if !storeLossless {
					switch {
					case p.bounds != nil:
						if b := p.bounds[idx-first]; b < 0 {
							storeLossless = true
						} else {
							derived = b
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
						out.marks = append(out.marks, p.gid+idx)
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
					out.marks = append(out.marks, p.gid+idx)
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
					out.marks = append(out.marks, p.gid+idx)
				}
			}
			if rows != nil {
				rows[row] = out.ends()
				row++
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
