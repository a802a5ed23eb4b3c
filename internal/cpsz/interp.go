package cpsz

// The interpolation codec path: an SZ3-style level-wise scheme where a
// coarse lattice predicts midpoints dimension by dimension, halving the
// stride each level (cubic stencil inside, linear/copy at boundaries).
// It is serial by construction (every level depends on the previous one)
// and composes with every error-control mode, including the coupled
// critical-point-preserving bounds — the visit order differs from the
// Lorenzo path, but the per-vertex sign-preservation invariant is order
// independent.

import (
	"context"
	"math"

	"tspsz/internal/bitmap"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/obs"
	"tspsz/internal/quantizer"
)

// Predictor selects the prediction scheme.
type Predictor int

const (
	// PredictorLorenzo is the default region-parallel Lorenzo pipeline.
	PredictorLorenzo Predictor = iota
	// PredictorInterpolation is the SZ3-style level-wise interpolation
	// pipeline (serial).
	PredictorInterpolation
)

// String implements fmt.Stringer.
func (p Predictor) String() string {
	if p == PredictorInterpolation {
		return "interpolation"
	}
	return "lorenzo"
}

// interpVisit enumerates the interpolation order: the origin first, then
// per level (stride halving) the new lattice points dimension by
// dimension. For every vertex it reports the axis to interpolate along and
// the stride, from which both encoder and decoder derive the identical
// prediction. visit(i, j, k, axis, stride); axis == -1 marks the origin.
func interpVisit(nx, ny, nz int, visit func(i, j, k, axis, stride int)) {
	maxDim := nx
	if ny > maxDim {
		maxDim = ny
	}
	if nz > maxDim {
		maxDim = nz
	}
	stride := 1
	for stride < maxDim-1 {
		stride <<= 1
	}
	visit(0, 0, 0, -1, 0)
	for ; stride >= 1; stride >>= 1 {
		s2 := stride * 2
		// Phase X: i odd multiple of stride; j, k multiples of 2·stride.
		for k := 0; k < nz; k += s2 {
			for j := 0; j < ny; j += s2 {
				for i := stride; i < nx; i += s2 {
					visit(i, j, k, 0, stride)
				}
			}
		}
		// Phase Y: j odd multiple of stride; i multiple of stride; k of 2·stride.
		for k := 0; k < nz; k += s2 {
			for j := stride; j < ny; j += s2 {
				for i := 0; i < nx; i += stride {
					visit(i, j, k, 1, stride)
				}
			}
		}
		// Phase Z: k odd multiple of stride; i, j multiples of stride.
		for k := stride; k < nz; k += s2 {
			for j := 0; j < ny; j += stride {
				for i := 0; i < nx; i += stride {
					visit(i, j, k, 2, stride)
				}
			}
		}
	}
}

// interpPredict computes the prediction for vertex (i,j,k) along axis with
// the given stride, reading the working data.
func interpPredict(vals []float32, nx, ny, nz, i, j, k, axis, stride int) float64 {
	nxny := nx * ny
	switch axis {
	case 0:
		return quantizer.InterpPredict1D(vals, func(c int) int { return c + j*nx + k*nxny }, nx, i, stride)
	case 1:
		return quantizer.InterpPredict1D(vals, func(c int) int { return i + c*nx + k*nxny }, ny, j, stride)
	case 2:
		return quantizer.InterpPredict1D(vals, func(c int) int { return i + j*nx + c*nxny }, nz, k, stride)
	default:
		return 0
	}
}

// compressInterp is the interpolation-path encoder: identical stream
// semantics to the Lorenzo path, different visit order and predictor, one
// region.
func compressInterp(ctx context.Context, f *field.Field, opts Options) (*Result, error) {
	col := opts.Collector
	work := f.Clone()
	lossless := bitmap.New(f.NumVertices())
	var out regionStreams
	nx, ny, nz := f.Grid.Dims()
	comps := f.Components()
	workComps := work.Components()
	radius := int32(quantizer.DefaultRadius)

	quantizePass := func() {
		interpVisit(nx, ny, nz, func(i, j, k, axis, stride int) {
			idx := i + j*nx + k*nx*ny
			forced := opts.Lossless != nil && opts.Lossless.Get(idx)
			storeLossless := forced
			var derived float64
			if !storeLossless {
				switch {
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
			quantize := func(c int, aeb float64) {
				pred := interpPredict(workComps[c], nx, ny, nz, i, j, k, axis, stride)
				code, recon, ok := quantizer.Quantize(float64(comps[c][idx]), pred, aeb, radius)
				if !ok {
					out.quantSyms = append(out.quantSyms, quantizer.UnpredictableSym)
					out.rawFloat(comps[c][idx])
					workComps[c][idx] = comps[c][idx]
					return
				}
				out.quantSyms = append(out.quantSyms, quantizer.Zigzag(code))
				workComps[c][idx] = float32(recon)
			}
			if opts.Mode == ebound.Absolute {
				if !storeLossless {
					target := math.Min(opts.ErrBound, derived)
					sym, aeb := absSymbol(opts.ErrBound, target)
					if sym == absLosslessSym {
						storeLossless = true
					} else {
						out.ebSyms = append(out.ebSyms, sym)
						for c := range comps {
							quantize(c, aeb)
						}
					}
				}
				if storeLossless {
					out.ebSyms = append(out.ebSyms, absLosslessSym)
					for c := range comps {
						out.rawFloat(comps[c][idx])
						workComps[c][idx] = comps[c][idx]
					}
					lossless.Set(idx)
				}
				return
			}
			if storeLossless {
				for c := range comps {
					out.ebSyms = append(out.ebSyms, relExactSym)
					out.rawFloat(comps[c][idx])
					workComps[c][idx] = comps[c][idx]
				}
				lossless.Set(idx)
				return
			}
			xi := math.Min(opts.ErrBound, derived)
			allExact := true
			for c := range comps {
				target := xi * math.Abs(float64(comps[c][idx]))
				sym, aeb := relSymbol(target)
				out.ebSyms = append(out.ebSyms, sym)
				if sym == relExactSym {
					out.rawFloat(comps[c][idx])
					workComps[c][idx] = comps[c][idx]
					continue
				}
				allExact = false
				quantize(c, aeb)
			}
			if allExact {
				lossless.Set(idx)
			}
		})
	}
	// The interpolation predictor is serial by construction (each level
	// depends on the previous), so its span always reports one worker.
	if err := col.Do(obs.StagePredictQuant, 1, int64(f.NumVertices()), func() error {
		quantizePass()
		return nil
	}); err != nil {
		return nil, err
	}
	col.Add(obs.CtrLosslessVertices, int64(lossless.Count()))
	var tot sectionTotals
	tot.observe(&out)
	return sealResult(ctx, f, opts, &tot, heldStreams{&out}, work, lossless)
}

// reconstructInterp is the serial interpolation-path decoder.
func reconstructInterp(f *field.Field, hdr header, ebSyms, quantSyms []uint32, raw []byte) error {
	nx, ny, nz := f.Grid.Dims()
	comps := f.Components()
	var off regionOffsets
	var decodeErr error
	interpVisit(nx, ny, nz, func(i, j, k, axis, stride int) {
		if decodeErr != nil {
			return
		}
		idx := i + j*nx + k*nx*ny
		reconOne := func(c int, aeb float64) {
			if off.quant >= len(quantSyms) {
				decodeErr = errBadSymbols
				return
			}
			qs := quantSyms[off.quant]
			off.quant++
			if qs == quantizer.UnpredictableSym {
				if off.raw+4 > len(raw) {
					decodeErr = errBadSymbols
					return
				}
				comps[c][idx] = readFloat(raw, &off.raw)
				return
			}
			pred := interpPredict(comps[c], nx, ny, nz, i, j, k, axis, stride)
			comps[c][idx] = float32(quantizer.Reconstruct(pred, aeb, quantizer.Unzigzag(qs)))
		}
		if hdr.mode == ebound.Absolute {
			if off.eb >= len(ebSyms) {
				decodeErr = errBadSymbols
				return
			}
			sym := ebSyms[off.eb]
			off.eb++
			if sym > absLosslessSym {
				decodeErr = errBadSymbols
				return
			}
			aeb, lossless := absBoundOf(hdr.errBound, sym)
			for c := range comps {
				if decodeErr != nil {
					return
				}
				if lossless {
					if off.raw+4 > len(raw) {
						decodeErr = errBadSymbols
						return
					}
					comps[c][idx] = readFloat(raw, &off.raw)
					continue
				}
				reconOne(c, aeb)
			}
			return
		}
		for c := range comps {
			if decodeErr != nil {
				return
			}
			if off.eb >= len(ebSyms) {
				decodeErr = errBadSymbols
				return
			}
			sym := ebSyms[off.eb]
			off.eb++
			if sym > relBias+relExpCap+1 {
				decodeErr = errBadSymbols
				return
			}
			aeb, exact := relBoundOf(sym)
			if exact {
				if off.raw+4 > len(raw) {
					decodeErr = errBadSymbols
					return
				}
				comps[c][idx] = readFloat(raw, &off.raw)
				continue
			}
			reconOne(c, aeb)
		}
	})
	if decodeErr != nil {
		return decodeErr
	}
	if off.eb != len(ebSyms) || off.quant != len(quantSyms) || off.raw != len(raw) {
		return errBadSymbols
	}
	return nil
}
