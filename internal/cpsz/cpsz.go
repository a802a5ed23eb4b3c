// Package cpsz implements the critical-point-preserving error-bounded lossy
// compressor that TspSZ builds on (Algorithm 1 of the paper, revised per
// §IV-B to encode cells containing critical points losslessly). It supports
// cpSZ's original point-wise relative error control (Theorem 1) and the
// absolute error control TspSZ derives in §VI, an externally supplied set of
// forced-lossless vertices (the hook used by TspSZ-I), and the multi-stage
// shared-memory parallelization of §VII.
//
// The compressed stream stores, per vertex, a quantized error-bound
// exponent, SZ-style Lorenzo-predicted quantization codes, and verbatim
// float32 values for lossless or unpredictable samples; the symbol streams
// are Huffman coded and DEFLATE packed.
//
// One engine serves both Lorenzo entry points: a layer sweep over the slab
// regions (sweep.go) and one section sealer (seal, format.go). Compress
// sweeps views of the resident field and holds each region's streams as
// they are; CompressStream sweeps a caller's LayerFetcher and holds them
// as a Huffman spill (stream.go). The interpolation path (interp.go) is
// serial and seals through the same writer.
//
// The sweep is parallel at two levels: slab regions side by side, and,
// inside a region, 4×4-vertex tiles (spanning all of the region's planes)
// on the workers the region level leaves idle, so a field too thin for
// more than one slab still compresses on every worker. A tile starts as
// soon as its neighbors at lower x and lower y are done
// (parallel.Wavefront), with no barrier between anti-diagonals. Every
// bound and prediction reads only vertices at componentwise non-negative
// or non-positive offsets, so the tiles read exactly what the raster order
// reads and every archive is the raster order's, byte for byte (sweep.go
// gives the argument).
package cpsz

import (
	"context"
	"errors"
	"fmt"
	"math"

	"tspsz/internal/bitmap"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/obs"
	"tspsz/internal/streamerr"
)

// Options configures compression.
type Options struct {
	// Mode selects relative (cpSZ) or absolute (TspSZ, §VI) error control.
	Mode ebound.Mode
	// ErrBound is the user bound ε: an absolute bound in Absolute mode, a
	// point-wise relative factor in Relative mode. Must be positive.
	ErrBound float64
	// Lossless optionally marks vertices that must be stored verbatim
	// (Algorithm 2/3 use this for separatrix-involved vertices). May be
	// nil. Length must equal the vertex count when set.
	Lossless *bitmap.Bitmap
	// Workers bounds compression parallelism; values < 1 mean GOMAXPROCS.
	// The output stream is identical for every worker count.
	Workers int
	// SoS switches to the cpSZ-sos baseline bound [36]: the sign of every
	// barycentric determinant predicate is preserved instead of forcing
	// critical-point cells lossless. Critical point existence survives but
	// positions drift, so separatrices are not preserved. cpSZ-sos has no
	// parallel implementation in the paper; combine with Workers: 1 when
	// reproducing its timing rows.
	SoS bool
	// Plain disables all topology coupling: every vertex uses the user
	// bound directly, i.e. a vanilla SZ3-style error-bounded compressor
	// (the SZ3 baseline of Fig. 8). Mutually exclusive with SoS.
	Plain bool
	// Predictor selects Lorenzo (default, region parallel) or the
	// SZ3-style level-wise interpolation predictor (serial).
	Predictor Predictor
	// Collector optionally gathers per-stage spans and counters (see
	// internal/obs). Nil disables instrumentation at zero cost; attaching a
	// collector never changes the output stream.
	Collector *obs.Collector
	// Reference enables temporal prediction for time-varying sequences:
	// every vertex is predicted by its value in this (already
	// decompressed) previous frame instead of spatial neighbors. The
	// stream is then no longer self-contained — decode it with
	// DecompressRef supplying the same reference. Shape must match f.
	Reference *field.Field
}

// validate checks the options both entry points share and names the
// first it cannot encode: a header carries the mode and predictor, so an
// unknown value must never reach the wire.
func (o *Options) validate() error {
	if !(o.ErrBound > 0) {
		return fmt.Errorf("cpsz: error bound must be positive, got %v", o.ErrBound)
	}
	if o.Mode != ebound.Absolute && o.Mode != ebound.Relative {
		return fmt.Errorf("cpsz: unknown error mode %d", o.Mode)
	}
	if o.Predictor != PredictorLorenzo && o.Predictor != PredictorInterpolation {
		return fmt.Errorf("cpsz: unknown predictor %d", o.Predictor)
	}
	if o.SoS && o.Plain {
		return errors.New("cpsz: SoS and Plain are mutually exclusive")
	}
	return nil
}

// Result is the outcome of Compress.
type Result struct {
	// Bytes is the self-contained compressed stream.
	Bytes []byte
	// Decompressed holds the reconstruction the decoder will produce,
	// computed for free during compression (TspSZ-i operates on it).
	Decompressed *field.Field
	// LosslessVertices marks every vertex stored verbatim: forced ones,
	// critical-point-adjacent ones, and bound-underflow ones (Fig. 6).
	LosslessVertices *bitmap.Bitmap
}

// Error-bound symbol encoding. Absolute mode stores one symbol per vertex:
// exponent e with realized bound ε·2^−e, or absLosslessSym. Relative mode
// stores one symbol per vertex component: 0 for exact storage, otherwise
// e+relBias+1 with realized absolute bound 2^e.
const (
	absExpCap      = 30
	absLosslessSym = absExpCap + 1
	relBias        = 200
	relExpCap      = 200
	relExactSym    = 0
)

// errBadSymbols marks a symbol stream whose content contradicts the header
// it arrived with: symbols past the valid alphabet, streams that run out
// mid-region, or leftover symbols after the last vertex.
var errBadSymbols error = streamerr.Corrupt("symbol stream", "symbol stream inconsistent with header")

// Compress encodes f under opts. The input field is not modified.
func Compress(f *field.Field, opts Options) (*Result, error) {
	return CompressCtx(nil, f, opts)
}

// CompressCtx is Compress with cancellation: the prediction/quantization
// and entropy-encode stages check ctx at grain boundaries and abandon the
// encode with a streamerr.ErrCancelled-typed error once ctx is done. A nil
// ctx never cancels, making CompressCtx(nil, f, opts) identical to
// Compress.
func CompressCtx(ctx context.Context, f *field.Field, opts Options) (r *Result, err error) {
	defer streamerr.CancelGuard("cpsz", &err)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Lossless != nil && opts.Lossless.Len() != f.NumVertices() {
		return nil, fmt.Errorf("cpsz: lossless bitmap has %d bits, field has %d vertices",
			opts.Lossless.Len(), f.NumVertices())
	}
	if opts.Reference != nil {
		if opts.Predictor == PredictorInterpolation {
			return nil, errors.New("cpsz: temporal reference requires the Lorenzo path")
		}
		// Compare per-axis extents, not just dim and vertex count: a
		// transposed reference (4x6 against 6x4) has the same product but
		// every neighborhood read would use the wrong stride.
		rx, ry, rz := opts.Reference.Grid.Dims()
		fx, fy, fz := f.Grid.Dims()
		if opts.Reference.Dim() != f.Dim() || rx != fx || ry != fy || rz != fz {
			return nil, errors.New("cpsz: reference shape differs from input")
		}
	}
	opts.Collector.Add(obs.CtrBytesIn, int64(f.SizeBytes()))
	if opts.Predictor == PredictorInterpolation {
		return compressInterp(ctx, f, opts)
	}
	return compressResident(ctx, f, opts)
}

// Decompress reconstructs a field from a self-contained stream produced by
// Compress. workers bounds reconstruction parallelism (values < 1 mean
// GOMAXPROCS). Streams written with a temporal Reference must use
// DecompressRef instead. Failures are streamerr-typed and a panic anywhere
// in the decode path is contained and returned as an error.
func Decompress(data []byte, workers int) (f *field.Field, err error) {
	return DecompressCtxObserved(nil, data, workers, nil)
}

// DecompressCtx is Decompress with cancellation: entropy decode and
// reconstruction check ctx at grain boundaries, and a decode abandoned on
// a done context returns a streamerr.ErrCancelled-typed error (never
// corruption) with every worker joined and every pooled buffer returned.
// A nil ctx never cancels.
func DecompressCtx(ctx context.Context, data []byte, workers int) (f *field.Field, err error) {
	return DecompressCtxObserved(ctx, data, workers, nil)
}

// DecompressObserved is Decompress with an optional obs.Collector gathering
// entropy-decode and reconstruction spans plus chunk counters. A nil
// collector makes it identical to Decompress; the reconstruction is
// byte-identical either way.
func DecompressObserved(data []byte, workers int, c *obs.Collector) (f *field.Field, err error) {
	return DecompressCtxObserved(nil, data, workers, c)
}

// DecompressCtxObserved is DecompressCtx with an optional obs.Collector.
func DecompressCtxObserved(ctx context.Context, data []byte, workers int, c *obs.Collector) (f *field.Field, err error) {
	defer streamerr.Guard("cpsz", &err)
	return decompress(ctx, data, workers, nil, c)
}

// DecompressRef reconstructs a temporally predicted stream against the
// same reference frame the encoder used (the previous decompressed frame
// of the sequence).
func DecompressRef(data []byte, workers int, ref *field.Field) (f *field.Field, err error) {
	return DecompressRefCtxObserved(nil, data, workers, ref, nil)
}

// DecompressRefCtx is DecompressRef with cancellation (see DecompressCtx).
func DecompressRefCtx(ctx context.Context, data []byte, workers int, ref *field.Field) (f *field.Field, err error) {
	return DecompressRefCtxObserved(ctx, data, workers, ref, nil)
}

// DecompressRefObserved is DecompressRef with an optional obs.Collector.
func DecompressRefObserved(data []byte, workers int, ref *field.Field, c *obs.Collector) (f *field.Field, err error) {
	return DecompressRefCtxObserved(nil, data, workers, ref, c)
}

// DecompressRefCtxObserved is DecompressRef with both cancellation and an
// optional obs.Collector.
func DecompressRefCtxObserved(ctx context.Context, data []byte, workers int, ref *field.Field, c *obs.Collector) (f *field.Field, err error) {
	defer streamerr.Guard("cpsz", &err)
	if ref == nil {
		return nil, errors.New("cpsz: DecompressRef requires a reference frame")
	}
	return decompress(ctx, data, workers, ref, c)
}

// absSymbol quantizes a derived bound into the absolute-mode exponent
// symbol: the smallest e with ε·2^−e ≤ target, or absLosslessSym when the
// target is below the representable range. The realized bound is returned.
func absSymbol(userEB, target float64) (sym uint32, realized float64) {
	if !(target > 0) {
		return absLosslessSym, 0
	}
	if math.IsInf(target, 1) {
		return 0, userEB
	}
	e := 0
	realized = userEB
	for realized > target {
		e++
		if e > absExpCap {
			return absLosslessSym, 0
		}
		realized = userEB * math.Pow(2, -float64(e))
	}
	return uint32(e), realized
}

// absBoundOf inverts absSymbol on the decoder side.
func absBoundOf(userEB float64, sym uint32) (realized float64, lossless bool) {
	if sym == absLosslessSym {
		return 0, true
	}
	return userEB * math.Pow(2, -float64(sym)), false
}

// relSymbol quantizes a per-component absolute target bound (ξ·|x|) into
// the relative-mode symbol: floor-log2 exponent biased by relBias, or
// relExactSym for exact storage.
func relSymbol(target float64) (sym uint32, realized float64) {
	if !(target > 0) || math.IsNaN(target) {
		return relExactSym, 0
	}
	if math.IsInf(target, 1) {
		target = math.MaxFloat64
	}
	e := math.Ilogb(target)
	if e > relExpCap {
		e = relExpCap
	}
	if e < -relBias {
		return relExactSym, 0
	}
	return uint32(e + relBias + 1), math.Ldexp(1, e)
}

// relBoundOf inverts relSymbol.
func relBoundOf(sym uint32) (realized float64, exact bool) {
	if sym == relExactSym {
		return 0, true
	}
	return math.Ldexp(1, int(sym)-relBias-1), false
}
