package core

// Time-varying sequence compression — an extension beyond the paper (its
// conclusion lists improving compression ratios as future work). Frames
// after the first are predicted temporally: every vertex is predicted by
// its value in the previous *decompressed* frame, which on slowly evolving
// simulations beats spatial prediction by a wide margin. Every frame still
// carries the full topological-skeleton guarantee for its own time step.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"tspsz/internal/field"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
	"tspsz/internal/streamerr"
)

const seqMagic = "TSPQ"
const seqVersion = 1

// SeqResult is the outcome of CompressSequence.
type SeqResult struct {
	// Bytes is the self-contained sequence container.
	Bytes []byte
	// FrameSizes records each frame's compressed size.
	FrameSizes []int
	// Stats carries the per-frame compression statistics.
	Stats []Stats
	// Obs is the whole-sequence observability snapshot when
	// Options.Collector was set, nil otherwise. Per-frame work appears as
	// "frame" spans wrapping the inner pipeline stages.
	Obs *obs.Snapshot
}

// CompressSequence encodes a time series of fields of identical shape,
// preserving the topological skeleton of every frame. Frame 0 is encoded
// standalone; later frames are temporally predicted against the previous
// frame's reconstruction.
func CompressSequence(frames []*field.Field, opts Options) (*SeqResult, error) {
	return CompressSequenceCtx(nil, frames, opts)
}

// CompressSequenceCtx is CompressSequence with cancellation, checked
// between frames and at grain boundaries within each frame's pipeline. A
// nil ctx never cancels.
func CompressSequenceCtx(ctx context.Context, frames []*field.Field, opts Options) (sr *SeqResult, err error) {
	defer streamerr.CancelGuard("sequence", &err)
	if len(frames) == 0 {
		return nil, errors.New("core: empty sequence")
	}
	o := opts.withDefaults()
	if !(o.ErrBound > 0) {
		return nil, fmt.Errorf("core: error bound must be positive, got %v", o.ErrBound)
	}
	if !(o.Tau > 0) {
		return nil, fmt.Errorf("core: Fréchet tolerance tau must be positive (0 selects √2), got %v", o.Tau)
	}
	if err := o.Params.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := validateFrameShapes(frames); err != nil {
		return nil, err
	}
	if len(frames) > math.MaxUint32 {
		return nil, streamerr.Header("sequence", "frame count %d exceeds the u32 header field", len(frames))
	}
	var buf bytes.Buffer
	buf.WriteString(seqMagic)
	buf.WriteByte(seqVersion)
	var nf [4]byte
	binary.LittleEndian.PutUint32(nf[:], uint32(len(frames))) //lint:allow narrowing count checked against MaxUint32 above
	buf.Write(nf[:])

	c := o.Collector
	out := &SeqResult{}
	var ref *field.Field
	for fi, f := range frames {
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
		buf.Write(l[:])
		buf.Write(res.Bytes)
		out.FrameSizes = append(out.FrameSizes, len(res.Bytes))
		out.Stats = append(out.Stats, res.Stats)
		ref = res.Decompressed
	}
	out.Bytes = buf.Bytes()
	if c != nil {
		// Sequence framing: the TSPQ header plus one length prefix per
		// frame, charged to the container counter so the byte partition
		// still sums to the archive size for sequence archives.
		framing := int64(len(out.Bytes))
		for _, sz := range out.FrameSizes {
			framing -= int64(sz)
		}
		c.Add(obs.CtrBytesContainer, framing)
		c.Add(obs.CtrBytesOut, framing)
		out.Obs = c.Snapshot()
	}
	return out, nil
}

// DecompressSequence reconstructs every frame of a CompressSequence
// container, in order.
func DecompressSequence(data []byte, workers int) (frames []*field.Field, err error) {
	return DecompressSequenceCtxObserved(nil, data, workers, nil)
}

// DecompressSequenceCtx is DecompressSequence with cancellation, checked
// between frames and at grain boundaries within each frame's decode. A nil
// ctx never cancels.
func DecompressSequenceCtx(ctx context.Context, data []byte, workers int) (frames []*field.Field, err error) {
	return DecompressSequenceCtxObserved(ctx, data, workers, nil)
}

// DecompressSequenceObserved is DecompressSequence with an optional
// obs.Collector; each frame decode is wrapped in a "frame" span.
func DecompressSequenceObserved(data []byte, workers int, c *obs.Collector) (frames []*field.Field, err error) {
	return DecompressSequenceCtxObserved(nil, data, workers, c)
}

// DecompressSequenceCtxObserved is DecompressSequenceCtx with an optional
// obs.Collector.
func DecompressSequenceCtxObserved(ctx context.Context, data []byte, workers int, c *obs.Collector) (frames []*field.Field, err error) {
	defer streamerr.Guard("sequence", &err)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	n, off, err := parseSequenceHeader(data)
	if err != nil {
		return nil, err
	}
	frames = make([]*field.Field, 0, n)
	var ref *field.Field
	for fi := 0; fi < n; fi++ {
		fr, next, err := sequenceFrame(data, off, fi)
		if err != nil {
			return nil, err
		}
		var dec *field.Field
		if err := c.Do(obs.StageFrame, parallel.Workers(workers), int64(len(fr)), func() error {
			var err error
			dec, err = decompressRef(ctx, fr, workers, ref, c)
			return err
		}); err != nil {
			var se *streamerr.Error
			if errors.As(err, &se) && errors.Is(err, streamerr.ErrCancelled) {
				// Cancellation is request-scoped, not frame-scoped; return
				// it untouched so errors.Is still sees context.Canceled.
				return nil, err
			}
			return nil, fmt.Errorf("core: frame %d: %w", fi, err)
		}
		off = next
		frames = append(frames, dec)
		ref = dec
	}
	return frames, nil
}

// validateFrameShapes rejects any frame whose per-axis extents differ from
// frame 0. Comparing Dim and NumVertices alone is not enough: a transposed
// frame (4×6 against 6×4) has the same dimension and vertex product, but
// temporal prediction would read every reference value at the wrong stride
// and silently produce garbage reconstructions.
func validateFrameShapes(frames []*field.Field) error {
	x0, y0, z0 := frames[0].Grid.Dims()
	for i, f := range frames[1:] {
		nx, ny, nz := f.Grid.Dims()
		if f.Dim() != frames[0].Dim() || nx != x0 || ny != y0 || nz != z0 {
			return streamerr.Header("sequence", "frame %d extents %dx%dx%d differ from frame 0 (%dx%dx%d)",
				i+1, nx, ny, nz, x0, y0, z0)
		}
	}
	return nil
}

// parseSequenceHeader validates the TSPQ header and returns the frame count
// and the offset of the first frame's length prefix.
func parseSequenceHeader(data []byte) (n, off int, err error) {
	if len(data) >= 4 && string(data[:4]) != seqMagic {
		return 0, 0, streamerr.Header("sequence", "bad magic, not a TspSZ sequence container")
	}
	if len(data) < 9 {
		return 0, 0, streamerr.Truncated("sequence", "%d of 9 header bytes", len(data))
	}
	if data[4] != seqVersion {
		return 0, 0, streamerr.Version("sequence", data[4])
	}
	n = int(binary.LittleEndian.Uint32(data[5:]))
	// Every frame carries an 8-byte length prefix, bounding the plausible
	// frame count well below the container size.
	if n < 0 || n > len(data)/8+1 {
		return 0, 0, streamerr.Corrupt("sequence", "implausible frame count %d", n)
	}
	return n, 9, nil
}

// sequenceFrame slices frame fi's container out of the sequence stream,
// returning it and the offset of the next frame.
func sequenceFrame(data []byte, off, fi int) ([]byte, int, error) {
	if off+8 > len(data) {
		return nil, 0, streamerr.Truncated("sequence", "frame length cut off").WithChunk(fi).WithOffset(int64(off))
	}
	l := binary.LittleEndian.Uint64(data[off:])
	off += 8
	if l > uint64(len(data)-off) {
		return nil, 0, streamerr.Truncated("sequence", "frame claims %d bytes, %d remain", l, len(data)-off).WithChunk(fi).WithOffset(int64(off))
	}
	return data[off : off+int(l)], off + int(l), nil
}
