// Package tspsz is an error-bounded lossy compressor for 2D and 3D vector
// fields that preserves the full topological skeleton — every critical
// point (exact position, type, and eigenvectors) and every separatrix — as
// described in "TspSZ: An Efficient Parallel Error-Bounded Lossy Compressor
// for Topological Skeleton Preservation" (ICDE 2025).
//
// # Quick start
//
//	f := tspsz.NewField2D(450, 150)
//	// ... fill f.U, f.V ...
//	res, err := tspsz.Compress(f, tspsz.Options{
//		Variant:  tspsz.TspSZ1,
//		Mode:     tspsz.ModeAbsolute,
//		ErrBound: 1e-3,
//	})
//	// res.Bytes is the compressed stream
//	dec, err := tspsz.Decompress(res.Bytes, 0)
//
// Two preservation algorithms are available. TspSZ1 (Algorithm 2 in the
// paper) losslessly encodes every vertex a separatrix computation touches:
// deterministic runtime and bit-exact separatrices, at a moderate
// compression-ratio cost. TspSZi (Algorithms 3-4) compresses first and then
// iteratively patches the trajectories that drifted beyond the Fréchet
// tolerance Tau: better ratios for extra compression time, with
// separatrices guaranteed within Tau.
//
// Both build on a revised cpSZ (package-internal) that stores cells
// containing critical points losslessly and supports the absolute error
// control derived in §VI of the paper, which markedly improves decompressed
// data quality over cpSZ's point-wise relative control at equal ratios.
package tspsz

import (
	"context"
	"io"

	"tspsz/internal/core"
	"tspsz/internal/cpsz"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/integrate"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
	"tspsz/internal/skeleton"
	"tspsz/internal/streamerr"
)

// Decode failure taxonomy. Every error a decode entry point (Decompress,
// DecompressCP, DecompressSequence, Verify, ReadField) returns for a
// malformed stream matches exactly one of these sentinels under errors.Is;
// I/O failures from the underlying reader pass through unwrapped.
var (
	// ErrTruncated: the stream ends before a section it declares.
	ErrTruncated = streamerr.ErrTruncated
	// ErrCorrupt: a checksum mismatch or internally inconsistent section.
	ErrCorrupt = streamerr.ErrCorrupt
	// ErrVersion: a format version this build does not read. It reads
	// only the current stream (v4) and container (v3) formats.
	ErrVersion = streamerr.ErrVersion
	// ErrHeader: a malformed fixed header (bad magic, implausible dims).
	ErrHeader = streamerr.ErrHeader
	// ErrCancelled: the operation was abandoned because the caller's
	// context was cancelled or its deadline expired. Unlike the four
	// stream-fault sentinels it says nothing about the bytes — retrying the
	// same stream with a live context may succeed. The original
	// context.Canceled / context.DeadlineExceeded stays visible through
	// errors.Is.
	ErrCancelled = streamerr.ErrCancelled
)

// StreamError is the concrete error type carrying the failing section name
// and, where known, the chunk index and byte offset. Use errors.As to
// recover it and errors.Is against the Err* sentinels to classify.
type StreamError = streamerr.Error

// Verify checks every integrity layer of a Compress, CompressCP, or
// CompressSequence stream — header CRC32C, section framing, per-chunk
// checksums, and the whole-archive trailer — without reconstructing the
// field. It inflates the container's correction patch but no chunk
// payload, so it is far cheaper than a full decode. It returns the first
// failure VerifyAll reports, or nil when the archive verifies. Layers are
// checked in the order strict decode checks them — a broken seal before
// the header and framing failures behind it — so damage that a checksum
// or the framing reveals fails Verify with the class Decompress returns.
func Verify(data []byte) error {
	if fails := VerifyAll(data); len(fails) > 0 {
		return fails[0]
	}
	return nil
}

// VerifyAll is the exhaustive counterpart of Verify: instead of stopping at
// the first integrity failure it scans every section and every chunk of the
// archive (and, for sequences, every frame) and returns one typed failure
// per violation in stream order — a deterministic, stable ordering for any
// given input. An empty result means the archive verifies completely.
func VerifyAll(data []byte) []*StreamError { return core.VerifyAll(data) }

// SalvageReport is the outcome of a salvage decode: the inner stream's
// per-section chunk damage, vertex-level recovery map, and the fate of the
// container seal and correction patch. See core.SalvageReport.
type SalvageReport = core.SalvageReport

// StreamSalvageReport is the inner stream's portion of a SalvageReport.
type StreamSalvageReport = cpsz.SalvageReport

// SectionSalvage reports the salvage outcome of one stream section.
type SectionSalvage = cpsz.SectionSalvage

// Salvage is the best-effort counterpart of Decompress for damaged
// archives: every chunk whose checksum verifies is decoded, the extents of
// damaged chunks are zero-filled, a broken archive trailer is tolerated,
// and a damaged TspSZ-i correction patch degrades to the uncorrected cpSZ
// reconstruction instead of failing. The report says exactly which chunks
// and which vertices were lost; vertices not marked in its Damaged bitmap
// are bit-identical to a clean decode. Accepts Compress containers and bare
// CompressCP streams; a damaged fixed header cannot be salvaged, an
// unsupported format version returns ErrVersion, and sequence containers
// return ErrHeader. The report is non-nil whenever the outer framing was
// readable, even alongside a non-nil error.
func Salvage(data []byte, workers int) (*Field, *SalvageReport, error) {
	return core.Salvage(data, workers)
}

// SalvageCtx is Salvage with cancellation (see DecompressCtx). A nil ctx
// never cancels.
func SalvageCtx(ctx context.Context, data []byte, workers int) (*Field, *SalvageReport, error) {
	return core.SalvageCtx(ctx, data, workers)
}

// Field is a 2D/3D vector field sampled on a regular grid; U, V (and W in
// 3D) are row-major float32 component slices.
type Field = field.Field

// NewField2D allocates a zero 2D field over an nx×ny vertex grid.
func NewField2D(nx, ny int) *Field { return field.New2D(nx, ny) }

// NewField3D allocates a zero 3D field over an nx×ny×nz vertex grid.
func NewField3D(nx, ny, nz int) *Field { return field.New3D(nx, ny, nz) }

// ReadField deserializes a field written with Field.WriteTo.
func ReadField(r io.Reader) (*Field, error) { return field.ReadFrom(r) }

// Mode selects the error-control flavour.
type Mode = ebound.Mode

const (
	// ModeRelative is cpSZ's point-wise relative error control
	// (|x−x′| ≤ ε·|x| per component).
	ModeRelative = ebound.Relative
	// ModeAbsolute is the absolute error control TspSZ derives in §VI
	// (|x−x′| ≤ ε per component); it yields markedly better PSNR at equal
	// compression ratios and fewer wrong separatrices.
	ModeAbsolute = ebound.Absolute
)

// Variant selects the separatrix preservation algorithm.
type Variant = core.Variant

const (
	// TspSZ1 is the single-pass selective-lossless algorithm: exact
	// separatrices, deterministic runtime.
	TspSZ1 = core.TspSZ1
	// TspSZi is the iterative-correction algorithm: higher compression
	// ratios, separatrices within the Fréchet tolerance.
	TspSZi = core.TspSZi
)

// IntegrationParams are the streamline-tracing parameters θ = {ε_p, t, h}.
type IntegrationParams = integrate.Params

// DefaultIntegrationParams returns the paper's Table II defaults.
func DefaultIntegrationParams() IntegrationParams { return integrate.DefaultParams() }

// Options configures Compress. Zero values of Params, Tau, and
// MaxIterations select the paper's defaults.
type Options = core.Options

// Result is the outcome of Compress: the stream, the decoder-identical
// reconstruction, the lossless-vertex map, and evaluation statistics.
type Result = core.Result

// Stats carries the counters Compress collects.
type Stats = core.Stats

// Collector gathers per-stage spans (with pprof "stage" labels) and atomic
// counters across a compression or decompression. Attach one via
// Options.Collector or the *Observed entry points; a nil Collector is valid
// everywhere and costs nothing. Instrumentation never perturbs output:
// archives are byte-identical with a collector attached or not.
type Collector = obs.Collector

// ObsSnapshot is a stable, JSON-serializable document of everything a
// Collector gathered: stage spans plus named counters (see
// Snapshot.WriteJSON and DESIGN.md §9 for the schema).
type ObsSnapshot = obs.Snapshot

// NewCollector returns a Collector whose span timestamps are monotonic
// offsets from this call.
func NewCollector() *Collector { return obs.New() }

// ObserveDispatches installs c as the process-global observer of
// internal worker-pool dispatches (loop count, pool size, busy time),
// feeding the parallel_* counters. It returns an uninstall func. Intended
// for profiling sessions where one observed operation runs at a time.
func ObserveDispatches(c *Collector) (uninstall func()) {
	if c == nil {
		return func() {}
	}
	parallel.SetHook(c.Dispatch)
	return func() { parallel.SetHook(nil) }
}

// Compress encodes f while preserving its topological skeleton.
func Compress(f *Field, opts Options) (*Result, error) { return core.Compress(f, opts) }

// CompressCtx is Compress with cancellation: every parallel stage checks
// ctx at grain boundaries and a cancelled or expired context abandons the
// encode with an ErrCancelled-typed error. A nil ctx never cancels.
func CompressCtx(ctx context.Context, f *Field, opts Options) (*Result, error) {
	return core.CompressCtx(ctx, f, opts)
}

// Decompress reconstructs a field from a stream produced by Compress.
// workers bounds parallelism; values < 1 mean GOMAXPROCS.
func Decompress(data []byte, workers int) (*Field, error) { return core.Decompress(data, workers) }

// DecompressCtx is Decompress with cancellation: entropy decode and
// reconstruction check ctx at grain boundaries, and a decode abandoned on a
// done context returns an ErrCancelled-typed error — never corruption —
// with every worker joined and every pooled buffer returned. A nil ctx
// never cancels.
func DecompressCtx(ctx context.Context, data []byte, workers int) (*Field, error) {
	return core.DecompressCtx(ctx, data, workers)
}

// DecompressObserved is Decompress with per-stage instrumentation recorded
// into c. A nil c makes it identical to Decompress; the reconstruction is
// identical either way.
func DecompressObserved(data []byte, workers int, c *Collector) (*Field, error) {
	return core.DecompressObserved(data, workers, c)
}

// DecompressCtxObserved is DecompressCtx with an optional Collector.
func DecompressCtxObserved(ctx context.Context, data []byte, workers int, c *Collector) (*Field, error) {
	return core.DecompressCtxObserved(ctx, data, workers, c)
}

// SeqResult is the outcome of CompressSequence.
type SeqResult = core.SeqResult

// CompressSequence encodes a time series of equally shaped fields,
// temporally predicting each frame from the previous reconstruction while
// preserving every frame's topological skeleton (an extension beyond the
// paper; see DESIGN.md).
func CompressSequence(frames []*Field, opts Options) (*SeqResult, error) {
	return core.CompressSequence(frames, opts)
}

// CompressSequenceCtx is CompressSequence with cancellation, checked
// between frames and at grain boundaries within each frame.
func CompressSequenceCtx(ctx context.Context, frames []*Field, opts Options) (*SeqResult, error) {
	return core.CompressSequenceCtx(ctx, frames, opts)
}

// DecompressSequence reconstructs all frames of a CompressSequence stream.
func DecompressSequence(data []byte, workers int) ([]*Field, error) {
	return core.DecompressSequence(data, workers)
}

// DecompressSequenceCtx is DecompressSequence with cancellation (see
// DecompressCtx).
func DecompressSequenceCtx(ctx context.Context, data []byte, workers int) ([]*Field, error) {
	return core.DecompressSequenceCtx(ctx, data, workers)
}

// DecompressSequenceObserved is DecompressSequence with per-stage
// instrumentation recorded into c; each frame decode appears as a "frame"
// span. A nil c makes it identical to DecompressSequence.
func DecompressSequenceObserved(data []byte, workers int, c *Collector) ([]*Field, error) {
	return core.DecompressSequenceObserved(data, workers, c)
}

// DecompressSequenceCtxObserved is DecompressSequenceCtx with an optional
// Collector.
func DecompressSequenceCtxObserved(ctx context.Context, data []byte, workers int, c *Collector) ([]*Field, error) {
	return core.DecompressSequenceCtxObserved(ctx, data, workers, c)
}

// CPResult is the outcome of CompressCP.
type CPResult = cpsz.Result

// PredictorKind selects the prediction scheme of the underlying codec.
type PredictorKind = cpsz.Predictor

const (
	// PredictorLorenzo is the default region-parallel Lorenzo predictor.
	PredictorLorenzo = cpsz.PredictorLorenzo
	// PredictorInterpolation is the SZ3-style level-wise cubic
	// interpolation predictor (serial).
	PredictorInterpolation = cpsz.PredictorInterpolation
)

// CompressCP runs the underlying revised cpSZ alone: critical points are
// preserved exactly but separatrices are not (the baseline rows of Tables
// IV–VII). mode and errBound follow the same semantics as Options.
func CompressCP(f *Field, mode Mode, errBound float64, workers int) (*CPResult, error) {
	return cpsz.Compress(f, cpsz.Options{Mode: mode, ErrBound: errBound, Workers: workers})
}

// CompressCPCtx is CompressCP with cancellation (see CompressCtx).
func CompressCPCtx(ctx context.Context, f *Field, mode Mode, errBound float64, workers int) (*CPResult, error) {
	return cpsz.CompressCtx(ctx, f, cpsz.Options{Mode: mode, ErrBound: errBound, Workers: workers})
}

// DecompressCP reconstructs a field from a CompressCP stream.
func DecompressCP(data []byte, workers int) (*Field, error) {
	return cpsz.Decompress(data, workers)
}

// DecompressCPCtx is DecompressCP with cancellation (see DecompressCtx).
func DecompressCPCtx(ctx context.Context, data []byte, workers int) (*Field, error) {
	return cpsz.DecompressCtx(ctx, data, workers)
}

// Skeleton is a field's topological skeleton: critical points plus
// separatrices.
type Skeleton = skeleton.Skeleton

// SkeletonStats summarizes a skeleton comparison: the number of incorrect
// separatrices and Fréchet distance statistics.
type SkeletonStats = skeleton.Stats

// ExtractSkeleton computes the topological skeleton of f; workers < 1 means
// GOMAXPROCS.
func ExtractSkeleton(f *Field, par IntegrationParams, workers int) *Skeleton {
	return skeleton.ExtractParallel(f, par, workers)
}

// ExtractSkeletonCtx is ExtractSkeleton with cancellation: critical-point
// search and separatrix tracing check ctx at grain boundaries. A nil ctx
// never cancels.
func ExtractSkeletonCtx(ctx context.Context, f *Field, par IntegrationParams, workers int) (*Skeleton, error) {
	return skeleton.ExtractParallelCtx(ctx, f, par, workers)
}

// ExtractSkeletonWith traces f's separatrices from an externally supplied
// critical point set, so skeletons of original and decompressed data
// correspond separatrix-by-separatrix.
func ExtractSkeletonWith(f *Field, ref *Skeleton, par IntegrationParams, workers int) *Skeleton {
	return skeleton.ExtractWithParallel(f, ref.CPs, par, workers)
}

// CompareSkeletons evaluates decompressed separatrices against originals
// under the Fréchet tolerance tau (the #IS and Fréchet columns of Tables
// IV–VII).
func CompareSkeletons(orig, dec *Skeleton, tau float64, workers int) SkeletonStats {
	return skeleton.CompareParallel(orig, dec, tau, workers)
}

// CompareSkeletonsCtx is CompareSkeletons with cancellation over the
// per-separatrix Fréchet computations.
func CompareSkeletonsCtx(ctx context.Context, orig, dec *Skeleton, tau float64, workers int) (SkeletonStats, error) {
	return skeleton.CompareParallelCtx(ctx, orig, dec, tau, workers)
}

// WriteSkeletonVTK serializes a skeleton as legacy VTK polydata for
// ParaView/VisIt: separatrices as polylines, critical points as typed
// vertices.
func WriteSkeletonVTK(w io.Writer, sk *Skeleton) error {
	return skeleton.WriteVTK(w, sk)
}
