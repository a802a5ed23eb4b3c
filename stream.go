package tspsz

// Out-of-core streaming compression: the field is pulled layer-by-layer (or
// frame-by-frame for sequences) through the compression pipeline with a
// bounded window of slabs in flight, and the archive is written to an
// io.Writer as it seals. Peak memory follows the window and the compressed
// spill the sweep holds, not the field, so fields far larger than RAM
// compress from disk. See DESIGN.md §10 "Streaming & out-of-core
// compression".

import (
	"context"
	"io"

	"tspsz/internal/core"
	"tspsz/internal/field"
)

// LayerFetcher supplies one z-layer of each vector component on demand. The
// returned planes are views valid only until the next Layer call; the
// compressor copies what it needs to retain. The streaming compressor
// sweeps the layers once with non-decreasing k; the same k may be requested
// twice in a row (a cut plane serves the slabs on both of its sides), so a
// pipe-backed source only has to keep the last layer it returned.
type LayerFetcher = field.LayerFetcher

// LayerFetcherFunc adapts a function to the LayerFetcher interface.
type LayerFetcherFunc = field.LayerFetcherFunc

// EbFetcher optionally supplies precomputed per-vertex error bounds, one
// z-layer at a time: a prior topology-analysis pass can stream its derived
// bounds alongside the data. A negative bound forces the vertex lossless;
// bounds are always capped by the user bound.
type EbFetcher = field.EbFetcher

// EbFetcherFunc adapts a function to the EbFetcher interface.
type EbFetcherFunc = field.EbFetcherFunc

// FrameFetcher supplies sequence frames on demand, called exactly once per
// frame index in ascending order.
type FrameFetcher = field.FrameFetcher

// FrameFetcherFunc adapts a function to the FrameFetcher interface.
type FrameFetcherFunc = field.FrameFetcherFunc

// FileLayers is a LayerFetcher over a serialized field (Field.WriteTo
// layout) in an io.ReaderAt, reading one plane per component at a time.
type FileLayers = field.FileLayers

// NewFileLayers validates the field header in r and returns a fetcher over
// its layers. Only 3D fields stream; the header is rejected with an
// ErrHeader-typed error otherwise.
func NewFileLayers(r io.ReaderAt) (*FileLayers, error) { return field.NewFileLayers(r) }

// FieldLayers adapts an in-memory field to the LayerFetcher interface,
// yielding zero-copy layer views.
func FieldLayers(f *Field) LayerFetcher { return field.Layers(f) }

// CompressStream compresses an nx×ny×nz 3D field supplied layer-by-layer,
// writing the archive to w. Peak memory is bounded by the in-flight slab
// window (O(nx·ny·workers) vertices), the spill that holds each region's
// symbols Huffman-coded until the section tables exist (close to the
// archive's size on real data, about one bit per symbol on near-constant
// data) and one section's encoded chunks — not by the field size. The
// archive is byte-identical to Compress with Variant TspSZ1 for fields
// whose skeleton demands no lossless vertices, and decodes with Decompress
// either way.
//
// With eb nil the sweep derives the same per-vertex bounds as the in-memory
// revised cpSZ, so the error bound holds and every critical point survives
// in its cell with its type and position. Separatrices cannot be traced
// slab-locally, so preserving them comes through eb: a prior analysis pass
// streams its per-vertex bounds (negative = store losslessly) and the
// encoder honors them exactly. Only TspSZ1 with the Lorenzo predictor
// streams; TspSZi needs the whole reconstruction resident and is rejected.
func CompressStream(ctx context.Context, w io.Writer, nx, ny, nz int, fetch LayerFetcher, eb EbFetcher, opts Options) (int64, error) {
	return core.CompressStream(ctx, w, nx, ny, nz, fetch, eb, opts)
}

// CompressSequenceStream compresses a time series frame-by-frame, writing
// the sequence container to w as each frame seals. Peak memory is two frames
// (current plus the previous reconstruction used for temporal prediction)
// regardless of sequence length, and the output is byte-identical to
// CompressSequence over the same frames. The returned SeqResult carries
// per-frame sizes and stats; its Bytes field is nil — the archive went to w.
func CompressSequenceStream(ctx context.Context, w io.Writer, count int, fetch FrameFetcher, opts Options) (*SeqResult, error) {
	return core.CompressSequenceStream(ctx, w, count, fetch, opts)
}
