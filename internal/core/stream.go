package core

// Out-of-core streaming entry points. CompressStream feeds z-layers through
// the cpSZ pipeline with a bounded in-flight window instead of materializing
// the whole field (the fff-style 2.5D streaming mode); CompressSequenceStream
// pulls frames one at a time so peak memory is O(frame), not O(sequence).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"tspsz/internal/cpsz"
	"tspsz/internal/field"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
	"tspsz/internal/streamerr"
)

// CompressStream compresses a 3D field fetched layer-by-layer, writing a
// TspSZ container to w without ever holding the whole field in memory. The
// working set is bounded by the in-flight slab window, not the field size.
//
// The streamed container is byte-identical to Compress with Variant TspSZ1
// whenever the field's skeleton demands no lossless vertices (no critical
// points). With eb nil the inner stream is the revised cpSZ's, byte for byte
// (cpsz.CompressStream derives the in-memory bounds), so critical points
// are preserved exactly along with the error bound. Separatrices need the
// whole field to trace, so preserving them must come through eb: a
// precomputed per-vertex bound fetcher (negative bound = store losslessly)
// produced by an earlier analysis pass. Only the TspSZ1 variant and the
// Lorenzo predictor are supported; TspSZ-i needs the whole reconstruction
// resident for iterative correction and cannot stream.
func CompressStream(ctx context.Context, w io.Writer, nx, ny, nz int, fetch field.LayerFetcher, eb field.EbFetcher, opts Options) (written int64, err error) {
	defer streamerr.CancelGuard("core", &err)
	if w == nil {
		return 0, errors.New("core: CompressStream requires a writer")
	}
	o := opts.withDefaults()
	if o.Variant != TspSZ1 {
		return 0, streamerr.Header("core", "only the TspSZ-1 variant can stream; TspSZ-i correction needs the whole field resident")
	}
	if !(o.ErrBound > 0) {
		return 0, streamerr.Header("core", "error bound must be positive, got %v", o.ErrBound)
	}
	c := o.Collector

	// The container records the inner stream's length before its bytes, so
	// the inner stream is buffered; everything upstream of it — the field
	// itself and the per-slab pipeline state — stays O(window).
	var inner bytes.Buffer
	if _, err := cpsz.CompressStream(ctx, &inner, nx, ny, nz, fetch, eb, cpsz.Options{
		Mode: o.Mode, ErrBound: o.ErrBound, Workers: o.Workers, Collector: c,
	}); err != nil {
		return 0, err
	}
	container, err := sealContainer(c, TspSZ1, patchSet{}, inner.Bytes(), 3)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(container)
	return int64(n), err
}

// CompressSequenceStream compresses a time series frame-by-frame, writing
// the sequence container to w as each frame seals. Frames are fetched one
// at a time (t ascending, each exactly once), so peak memory is two frames
// — the one being encoded and the previous reconstruction it is predicted
// against — regardless of sequence length. The output is byte-identical to
// CompressSequence over the same frames; the returned SeqResult carries the
// per-frame sizes and stats but leaves Bytes nil — the container went to w.
func CompressSequenceStream(ctx context.Context, w io.Writer, count int, fetch field.FrameFetcher, opts Options) (sr *SeqResult, err error) {
	defer streamerr.CancelGuard("sequence", &err)
	if w == nil {
		return nil, errors.New("core: CompressSequenceStream requires a writer")
	}
	if count <= 0 {
		return nil, errors.New("core: empty sequence")
	}
	if count > math.MaxUint32 {
		return nil, streamerr.Header("sequence", "frame count %d exceeds the u32 header field", count)
	}
	o := opts.withDefaults()
	if !(o.ErrBound > 0) {
		return nil, streamerr.Header("sequence", "error bound must be positive, got %v", o.ErrBound)
	}
	if !(o.Tau > 0) {
		return nil, streamerr.Header("sequence", "Fréchet tolerance tau must be positive (0 selects √2), got %v", o.Tau)
	}
	if err := o.Params.Validate(); err != nil {
		return nil, streamerr.Header("sequence", "%v", err)
	}
	c := o.Collector

	cw := &countWriter{w: w}
	var hdr [9]byte
	copy(hdr[:], seqMagic)
	hdr[4] = seqVersion
	binary.LittleEndian.PutUint32(hdr[5:], uint32(count)) //lint:allow narrowing count checked against MaxUint32 above
	if _, err := cw.Write(hdr[:]); err != nil {
		return nil, err
	}

	out := &SeqResult{}
	var ref *field.Field
	var x0, y0, z0 int
	for fi := 0; fi < count; fi++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		f, err := fetch.Frame(fi)
		if err != nil {
			return nil, err
		}
		if f == nil {
			return nil, streamerr.Header("sequence", "fetcher returned no frame %d", fi)
		}
		if fi == 0 {
			x0, y0, z0 = f.Grid.Dims()
		} else {
			fx, fy, fz := f.Grid.Dims()
			if fx != x0 || fy != y0 || fz != z0 {
				return nil, streamerr.Header("sequence", "frame %d extents %dx%dx%d differ from frame 0 (%dx%dx%d)",
					fi, fx, fy, fz, x0, y0, z0)
			}
		}
		var res *Result
		if err := c.Do(obs.StageFrame, parallel.Workers(o.Workers), int64(f.NumVertices()), func() error {
			var err error
			if o.Variant == TspSZ1 {
				res, err = compress1(ctx, f, o, ref)
			} else {
				res, err = compressI(ctx, f, o, ref)
			}
			return err
		}); err != nil {
			if ctx != nil && streamerr.IsContextErr(err) {
				return nil, err
			}
			return nil, fmt.Errorf("core: frame %d: %w", fi, err)
		}
		var l [8]byte
		binary.LittleEndian.PutUint64(l[:], uint64(len(res.Bytes)))
		if _, err := cw.Write(l[:]); err != nil {
			return nil, err
		}
		if _, err := cw.Write(res.Bytes); err != nil {
			return nil, err
		}
		out.FrameSizes = append(out.FrameSizes, len(res.Bytes))
		out.Stats = append(out.Stats, res.Stats)
		// Only the reconstruction survives the iteration: it is the temporal
		// reference for frame fi+1. The frame itself and its container bytes
		// are dropped, bounding the working set at O(frame).
		ref = res.Decompressed
	}
	if c != nil {
		framing := cw.n
		for _, sz := range out.FrameSizes {
			framing -= int64(sz)
		}
		c.Add(obs.CtrBytesContainer, framing)
		c.Add(obs.CtrBytesOut, framing)
		out.Obs = c.Snapshot()
	}
	return out, nil
}

// countWriter tracks bytes written so the sequence framing overhead can be
// charged to the byte-partition counters without buffering the stream.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return n, err
}
