package field

import (
	"io"
	"math"

	"tspsz/internal/streamerr"
)

// LayerFetcher feeds a field into the compressor's layer sweep one z-layer
// at a time (one row at a time for a 2D field, which only the in-memory
// path sweeps), so the raw data never needs to be resident as a whole. The
// contract mirrors the fff exemplar's layer callbacks:
//
//   - Layer(k) returns the component planes of z-layer k: result[c] holds
//     the nx*ny row-major float32 samples of component c.
//   - The returned slices are views, valid only until the next Layer call;
//     implementations may reuse their buffers and callers copy what they
//     keep.
//   - The compressor sweeps the layers once, with k non-decreasing; a
//     layer may be requested twice in a row (a cut plane is the neighbor
//     of the slabs on both of its sides).
type LayerFetcher interface {
	Layer(k int) ([][]float32, error)
}

// LayerFetcherFunc adapts a function to the LayerFetcher interface.
type LayerFetcherFunc func(k int) ([][]float32, error)

// Layer implements LayerFetcher.
func (fn LayerFetcherFunc) Layer(k int) ([][]float32, error) { return fn(k) }

// EbFetcher optionally supplies precomputed per-vertex error bounds to the
// streaming compressor (the analogue of the exemplar's EbFetcher): the
// effective bound of a vertex is min(user bound, fetched bound), and a
// negative fetched bound forces the vertex lossless. Validity and ordering
// rules match LayerFetcher.Layer, except that each layer is requested
// exactly once.
type EbFetcher interface {
	LayerBounds(k int) ([]float64, error)
}

// EbFetcherFunc adapts a function to the EbFetcher interface.
type EbFetcherFunc func(k int) ([]float64, error)

// LayerBounds implements EbFetcher.
func (fn EbFetcherFunc) LayerBounds(k int) ([]float64, error) { return fn(k) }

// FrameFetcher feeds a time-varying sequence into the streaming sequence
// compressor one frame at a time. Frame(t) is called exactly once per
// frame, in ascending order; the returned field is read (never mutated)
// only until the next Frame call, so implementations may reuse a buffer.
type FrameFetcher interface {
	Frame(t int) (*Field, error)
}

// FrameFetcherFunc adapts a function to the FrameFetcher interface.
type FrameFetcherFunc func(t int) (*Field, error)

// Frame implements FrameFetcher.
func (fn FrameFetcherFunc) Frame(t int) (*Field, error) { return fn(t) }

// LayerView returns the component planes of layer k along the field's
// slowest axis — z-layer k of a 3D field, row k of a 2D one — without
// copying: each returned slice aliases the field's component storage. k
// must be in [0, nz) in 3D and [0, ny) in 2D.
func (f *Field) LayerView(k int) [][]float32 {
	return f.layerViewInto(make([][]float32, len(f.Components())), k)
}

// layerViewInto is LayerView writing the views into dst, one per
// component.
func (f *Field) layerViewInto(dst [][]float32, k int) [][]float32 {
	nx, ny, _ := f.Grid.Dims()
	plane := nx * ny
	if f.Dim() == 2 {
		plane = nx
	}
	for c, vals := range f.Components() {
		dst[c] = vals[k*plane : (k+1)*plane]
	}
	return dst
}

// memLayers adapts an in-memory field to the LayerFetcher contract with
// zero copying. Its view header is reused across calls, as the contract
// allows, so a sweep allocates nothing per layer.
type memLayers struct {
	f     *Field
	views [][]float32
}

func (m *memLayers) Layer(k int) ([][]float32, error) {
	_, ny, nz := m.f.Grid.Dims()
	if m.f.Dim() == 2 {
		nz = ny
	}
	if k < 0 || k >= nz {
		return nil, streamerr.Header("layer fetch", "layer %d outside [0, %d)", k, nz)
	}
	return m.f.layerViewInto(m.views, k), nil
}

// Layers adapts an in-memory field to a zero-copy LayerFetcher over its
// LayerViews; every Layer call returns views into the field's own
// storage, valid until the next call. cpsz.Compress sweeps a resident
// field through it, and callers that have the field resident can hand it
// to the streaming writer.
func Layers(f *Field) LayerFetcher {
	return &memLayers{f: f, views: make([][]float32, len(f.Components()))}
}

// FileLayers is a LayerFetcher over a TSPF file (the WriteTo layout: 4-byte
// magic, 4 little-endian uint32 header words, then each component as
// little-endian float32). It reads one layer per component per call
// through an io.ReaderAt, so peak memory is one layer regardless of field
// size.
type FileLayers struct {
	r          io.ReaderAt
	nx, ny, nz int
	ncomp      int
	raw        []byte
	comps      [][]float32
}

// fileHeaderBytes is the TSPF preamble: magic plus dim, nx, ny, nz words.
const fileHeaderBytes = 4 + 4*4

// NewFileLayers validates the TSPF header of r and returns a layer fetcher
// over its payload. Only 3D fields can be streamed by layer; 2D files are
// rejected with a typed header error.
func NewFileLayers(r io.ReaderAt) (*FileLayers, error) {
	var hdr [fileHeaderBytes]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, readErr("field header", err)
	}
	if string(hdr[:4]) != fileMagic {
		return nil, streamerr.Header("field", "bad magic, not a TSPF file")
	}
	le := func(i int) int {
		off := 4 + 4*i
		return int(uint32(hdr[off]) | uint32(hdr[off+1])<<8 | uint32(hdr[off+2])<<16 | uint32(hdr[off+3])<<24)
	}
	dim, nx, ny, nz := le(0), le(1), le(2), le(3)
	if dim != 3 {
		return nil, streamerr.Header("field", "layer streaming requires a 3D field, got dimension %d", dim)
	}
	if nx < 2 || nx > maxAxis || ny < 2 || ny > maxAxis || nz < 2 || nz > maxAxis {
		return nil, streamerr.Header("field", "implausible dims %dx%dx%d", nx, ny, nz)
	}
	fl := &FileLayers{r: r, nx: nx, ny: ny, nz: nz, ncomp: 3}
	plane := nx * ny
	fl.raw = make([]byte, 4*plane)
	fl.comps = make([][]float32, fl.ncomp)
	for c := range fl.comps {
		fl.comps[c] = make([]float32, plane)
	}
	return fl, nil
}

// Dims returns the axis extents declared by the file header.
func (fl *FileLayers) Dims() (nx, ny, nz int) { return fl.nx, fl.ny, fl.nz }

// Components reports the component count (3 for the only streamable
// dimension).
func (fl *FileLayers) Components() int { return fl.ncomp }

// Layer implements LayerFetcher. The returned planes are reused across
// calls, per the fetcher contract.
func (fl *FileLayers) Layer(k int) ([][]float32, error) {
	if k < 0 || k >= fl.nz {
		return nil, streamerr.Header("layer fetch", "layer %d outside [0, %d)", k, fl.nz)
	}
	plane := fl.nx * fl.ny
	nv := plane * fl.nz
	out := make([][]float32, fl.ncomp)
	for c := 0; c < fl.ncomp; c++ {
		off := int64(fileHeaderBytes) + 4*int64(c*nv+k*plane)
		if _, err := fl.r.ReadAt(fl.raw, off); err != nil {
			return nil, readErr("field component", err)
		}
		dst := fl.comps[c]
		for i := range dst {
			b := fl.raw[4*i:]
			dst[i] = math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		}
		out[c] = dst
	}
	return out, nil
}
