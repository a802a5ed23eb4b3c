package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/streamerr"
)

// laminar3D is a smooth critical-point-free 3D field: no CP cells means
// TspSZ-1 marks no lossless vertices, so the streamed container must be
// byte-identical to the in-memory one.
func laminar3D(nx, ny, nz int) *field.Field {
	f := field.New3D(nx, ny, nz)
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		f.U[idx] = float32(1 + 0.01*p[0] + 0.002*p[2])
		f.V[idx] = float32(1 + 0.008*p[1])
		f.W[idx] = float32(1 + 0.005*p[2] - 0.001*p[0])
	}
	return f
}

func TestCompressStreamMatchesInMemory(t *testing.T) {
	f := laminar3D(14, 12, 64)
	for _, workers := range []int{1, 2, 4, 8} {
		opts := Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 0.001, Workers: workers}
		ref, err := Compress(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := CompressStream(nil, &buf, 14, 12, 64, field.Layers(f), nil, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("workers=%d: reported %d bytes, wrote %d", workers, n, buf.Len())
		}
		if !bytes.Equal(buf.Bytes(), ref.Bytes) {
			t.Fatalf("workers=%d: streamed container differs from in-memory (%d vs %d bytes)",
				workers, buf.Len(), len(ref.Bytes))
		}
		dec, err := Decompress(buf.Bytes(), workers)
		if err != nil {
			t.Fatalf("workers=%d: decode: %v", workers, err)
		}
		for c, comp := range dec.Components() {
			want := ref.Decompressed.Components()[c]
			for i := range comp {
				if comp[i] != want[i] {
					t.Fatalf("workers=%d comp %d vertex %d: %v != %v", workers, c, i, comp[i], want[i])
				}
			}
		}
	}
}

func TestCompressStreamRejectsTspSZi(t *testing.T) {
	f := laminar3D(8, 8, 16)
	var buf bytes.Buffer
	opts := Options{Variant: TspSZi, Mode: ebound.Absolute, ErrBound: 0.01}
	if _, err := CompressStream(nil, &buf, 8, 8, 16, field.Layers(f), nil, opts); err == nil {
		t.Fatal("TspSZ-i accepted on the streaming path")
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected stream still wrote %d bytes", buf.Len())
	}
}

// TestCompressStreamRejectsNilWriter: a nil writer fails before any layer
// is fetched, rather than panicking once the container is sealed.
func TestCompressStreamRejectsNilWriter(t *testing.T) {
	f := laminar3D(8, 8, 16)
	fetched := 0
	fetch := field.LayerFetcherFunc(func(k int) ([][]float32, error) {
		fetched++
		return f.LayerView(k), nil
	})
	opts := Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 0.01}
	if _, err := CompressStream(nil, nil, 8, 8, 16, fetch, nil, opts); err == nil {
		t.Fatal("nil writer accepted")
	}
	if fetched != 0 {
		t.Fatalf("nil writer still fetched %d layers", fetched)
	}
}

func TestCompressSequenceStreamMatchesInMemory(t *testing.T) {
	frames := makeSequence(5)
	opts := Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 0.02,
		Params: testParams(), Workers: 2}
	ref, err := CompressSequence(frames, opts)
	if err != nil {
		t.Fatal(err)
	}
	fetched := 0
	fetch := field.FrameFetcherFunc(func(ti int) (*field.Field, error) {
		if ti != fetched {
			t.Fatalf("frame %d fetched out of order (want %d)", ti, fetched)
		}
		fetched++
		return frames[ti], nil
	})
	var buf bytes.Buffer
	sr, err := CompressSequenceStream(nil, &buf, len(frames), fetch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fetched != len(frames) {
		t.Fatalf("fetched %d frames, want %d", fetched, len(frames))
	}
	if !bytes.Equal(buf.Bytes(), ref.Bytes) {
		t.Fatalf("streamed sequence differs from in-memory (%d vs %d bytes)", buf.Len(), len(ref.Bytes))
	}
	if sr.Bytes != nil {
		t.Fatal("streaming result should not retain the container bytes")
	}
	if len(sr.FrameSizes) != len(frames) {
		t.Fatalf("got %d frame sizes, want %d", len(sr.FrameSizes), len(frames))
	}
	for i, sz := range sr.FrameSizes {
		if sz != ref.FrameSizes[i] {
			t.Fatalf("frame %d size %d, in-memory %d", i, sz, ref.FrameSizes[i])
		}
	}
}

// TestSequenceRejectsTransposedFrame is the shape-validation regression: a
// transposed frame has the same dimension and vertex count as frame 0 but
// different per-axis extents, and must be rejected with a typed header error
// on both the in-memory and streaming paths.
func TestSequenceRejectsTransposedFrame(t *testing.T) {
	frames := []*field.Field{evolvingGyre(6, 4, 0), evolvingGyre(4, 6, 1)}
	opts := Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 0.02,
		Params: testParams(), Workers: 1}
	if _, err := CompressSequence(frames, opts); !errors.Is(err, streamerr.ErrHeader) {
		t.Fatalf("in-memory path: transposed frame accepted or mistyped: %v", err)
	}
	var buf bytes.Buffer
	fetch := field.FrameFetcherFunc(func(ti int) (*field.Field, error) { return frames[ti], nil })
	if _, err := CompressSequenceStream(nil, &buf, 2, fetch, opts); !errors.Is(err, streamerr.ErrHeader) {
		t.Fatalf("streaming path: transposed frame accepted or mistyped: %v", err)
	}
}

func TestCompressSequenceStreamErrors(t *testing.T) {
	opts := Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 0.02,
		Params: testParams(), Workers: 1}
	var buf bytes.Buffer
	fetch := field.FrameFetcherFunc(func(ti int) (*field.Field, error) { return evolvingGyre(6, 6, float64(ti)), nil })
	if _, err := CompressSequenceStream(nil, &buf, 0, fetch, opts); err == nil {
		t.Fatal("zero frames accepted")
	}
	boom := errors.New("frame source gone")
	failing := field.FrameFetcherFunc(func(ti int) (*field.Field, error) {
		if ti == 1 {
			return nil, boom
		}
		return evolvingGyre(6, 6, float64(ti)), nil
	})
	if _, err := CompressSequenceStream(nil, &buf, 3, failing, opts); !errors.Is(err, boom) {
		t.Fatalf("fetcher error: got %v", err)
	}
	lying := field.FrameFetcherFunc(func(ti int) (*field.Field, error) { return nil, nil })
	if _, err := CompressSequenceStream(nil, &buf, 2, lying, opts); !errors.Is(err, streamerr.ErrHeader) {
		t.Fatalf("nil frame: got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompressSequenceStream(ctx, &buf, 2, fetch, opts); !errors.Is(err, streamerr.ErrCancelled) {
		t.Fatalf("pre-cancelled: got %v", err)
	}
	fetched := 0
	counting := field.FrameFetcherFunc(func(ti int) (*field.Field, error) {
		fetched++
		return evolvingGyre(6, 6, float64(ti)), nil
	})
	if _, err := CompressSequenceStream(nil, nil, 2, counting, opts); err == nil {
		t.Fatal("nil writer accepted")
	}
	if fetched != 0 {
		t.Fatalf("nil writer still fetched %d frames", fetched)
	}
}
