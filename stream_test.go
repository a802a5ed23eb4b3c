package tspsz_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tspsz"
	"tspsz/internal/critical"
	"tspsz/internal/datagen"
)

// laminarField is a smooth critical-point-free 3D field: TspSZ-1 marks no
// lossless vertices for it, so the streamed archive must be byte-identical
// to the in-memory one.
func laminarField(nx, ny, nz int) *tspsz.Field {
	f := tspsz.NewField3D(nx, ny, nz)
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		f.U[idx] = float32(1 + 0.01*p[0] + 0.002*p[2])
		f.V[idx] = float32(1 + 0.008*p[1])
		f.W[idx] = float32(1 + 0.005*p[2] - 0.001*p[0])
	}
	return f
}

// oneSweep wraps fetch so that it fails when the compressor breaks the
// one-sweep contract: k never decreases from one request to the next, and
// a layer is fetched at most twice (a cut plane serves the slabs on both
// of its sides).
func oneSweep(fetch tspsz.LayerFetcher) tspsz.LayerFetcher {
	prev := 0
	counts := make(map[int]int)
	return tspsz.LayerFetcherFunc(func(k int) ([][]float32, error) {
		if k < prev {
			return nil, fmt.Errorf("layer %d requested after %d: the sweep went back", k, prev)
		}
		prev = k
		if counts[k]++; counts[k] > 2 {
			return nil, fmt.Errorf("layer %d requested %d times, want at most 2", k, counts[k])
		}
		return fetch.Layer(k)
	})
}

// TestStreamDifferential is the acceptance differential at the public API:
// streaming compression is byte-identical to the in-memory path at every
// worker count, from both an in-memory fetcher and a file-backed one, and
// either fetcher is swept once.
func TestStreamDifferential(t *testing.T) {
	nx, ny, nz := 18, 16, 80
	f := laminarField(nx, ny, nz)
	var file bytes.Buffer
	if _, err := f.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		opts := tspsz.Options{Variant: tspsz.TspSZ1, Mode: tspsz.ModeAbsolute, ErrBound: 0.001, Workers: workers}
		ref, err := tspsz.Compress(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		var mem bytes.Buffer
		if _, err := tspsz.CompressStream(nil, &mem, nx, ny, nz, oneSweep(tspsz.FieldLayers(f)), nil, opts); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(mem.Bytes(), ref.Bytes) {
			t.Fatalf("workers=%d: streamed archive differs from in-memory", workers)
		}
		fl, err := tspsz.NewFileLayers(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var disk bytes.Buffer
		if _, err := tspsz.CompressStream(nil, &disk, nx, ny, nz, oneSweep(fl), nil, opts); err != nil {
			t.Fatalf("workers=%d file-backed: %v", workers, err)
		}
		if !bytes.Equal(disk.Bytes(), ref.Bytes) {
			t.Fatalf("workers=%d: file-backed streamed archive differs from in-memory", workers)
		}
		dec, err := tspsz.Decompress(mem.Bytes(), workers)
		if err != nil {
			t.Fatalf("workers=%d: streamed archive fails to decode: %v", workers, err)
		}
		for c, comp := range dec.Components() {
			orig := f.Components()[c]
			for i := range comp {
				if d := math.Abs(float64(comp[i]) - float64(orig[i])); d > opts.ErrBound {
					t.Fatalf("workers=%d comp %d vertex %d: error %v exceeds bound", workers, c, i, d)
				}
			}
		}
	}
}

// TestStreamNilEbKeepsCriticalPoints: without a bound fetcher the layer
// sweep still derives the revised cpSZ's per-vertex bounds, so a streamed
// archive of a field full of critical points keeps every one of them in
// its cell, with its type and position. Only separatrices need eb.
func TestStreamNilEbKeepsCriticalPoints(t *testing.T) {
	f, err := datagen.ByName("hurricane", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	orig := critical.Extract(f)
	if len(orig) == 0 {
		t.Fatal("setup: no critical points")
	}
	nx, ny, nz := f.Grid.Dims()
	opts := tspsz.Options{Variant: tspsz.TspSZ1, Mode: tspsz.ModeAbsolute, ErrBound: 5e-3, Workers: 2}
	var buf bytes.Buffer
	if _, err := tspsz.CompressStream(nil, &buf, nx, ny, nz, tspsz.FieldLayers(f), nil, opts); err != nil {
		t.Fatal(err)
	}
	dec, err := tspsz.Decompress(buf.Bytes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	got := critical.Extract(dec)
	if len(got) != len(orig) {
		t.Fatalf("%d critical points after streaming, want %d", len(got), len(orig))
	}
	for i := range orig {
		if got[i].Cell != orig[i].Cell || got[i].Type != orig[i].Type || got[i].Pos != orig[i].Pos {
			t.Fatalf("critical point %d: cell %d type %v at %v, want cell %d type %v at %v",
				i, got[i].Cell, got[i].Type, got[i].Pos, orig[i].Cell, orig[i].Type, orig[i].Pos)
		}
	}
}

// TestStreamMemoryBounded is the out-of-core guarantee: compressing a field
// far larger than the streaming window from a procedural fetcher (no
// resident field anywhere) must keep peak heap under the field size. The
// fetchers refill the same buffers each call, as a file- or pipe-backed
// source would. Bounds arrive through an EbFetcher, as a streamed analysis
// pass would supply them.
//
// Budget calibration: the live set, measured by heap profile after a forced
// GC mid-run, is ~40% of the field — the in-flight slab window plus the
// saved cut planes (9 component planes per cut, up to 64 cuts) that must
// persist until the boundary regions are swept at the end — plus the
// spill, which on this near-constant field sits at its floor of one bit per
// symbol (~8 MiB). Raw HeapAlloc peaks 1.5-2× the live set because the
// monitor also sees garbage awaiting collection and allocation during the
// concurrent mark phase, so the assertion uses the full field size
// (observed peak 152-160 MiB on a 2-vCPU host, vs the 192 MiB budget). The
// in-memory path needs >=3× the field (field + clone + region streams), so
// the bound still separates the two paths decisively.
func TestStreamMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-MB-equivalent field")
	}
	if raceEnabled {
		t.Skip("race runtime heap accounting (shadow memory, delayed frees) breaks the HeapAlloc budget; the stream-suite target runs this gate without -race")
	}
	nx, ny, nz := 128, 128, 1024
	plane := nx * ny
	fieldBytes := uint64(nx) * uint64(ny) * uint64(nz) * 3 * 4
	u := make([]float32, plane)
	v := make([]float32, plane)
	w := make([]float32, plane)
	fetch := tspsz.LayerFetcherFunc(func(k int) ([][]float32, error) {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				r := j*nx + i
				u[r] = float32(1 + 0.01*float64(i) + 0.002*float64(k))
				v[r] = float32(1 + 0.008*float64(j))
				w[r] = float32(1 + 0.005*float64(k) - 0.001*float64(i))
			}
		}
		return [][]float32{u, v, w}, nil
	})
	b := make([]float64, plane)
	for i := range b {
		b[i] = 0.001
	}
	eb := tspsz.EbFetcherFunc(func(k int) ([]float64, error) { return b, nil })

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Uint64
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	var sink countingDiscard
	opts := tspsz.Options{Variant: tspsz.TspSZ1, Mode: tspsz.ModeAbsolute, ErrBound: 0.001, Workers: 2}
	n, err := tspsz.CompressStream(nil, &sink, nx, ny, nz, fetch, eb, opts)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if n != sink.n {
		t.Fatalf("reported %d bytes, wrote %d", n, sink.n)
	}
	growth := peak.Load() - base.HeapAlloc
	if growth > fieldBytes {
		t.Fatalf("peak heap growth %d MiB exceeds the %d MiB field: working set not O(window)",
			growth>>20, fieldBytes>>20)
	}
	t.Logf("field %d MiB, archive %d MiB, peak heap growth %d MiB", fieldBytes>>20, n>>20, growth>>20)
}

// countingDiscard counts bytes without retaining them, so the archive itself
// never shows up in the heap measurement.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// TestStreamCancellationNoLeak cancels mid-stream and asserts the full
// cancellation contract plus zero goroutine leakage, mirroring the PR 9
// harness for the in-memory paths.
func TestStreamCancellationNoLeak(t *testing.T) {
	nx, ny, nz := 32, 32, 128
	f := laminarField(nx, ny, nz)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	fetch := tspsz.LayerFetcherFunc(func(k int) ([][]float32, error) {
		if calls.Add(1) == 20 {
			cancel()
		}
		return f.LayerView(k), nil
	})
	var buf bytes.Buffer
	_, err := tspsz.CompressStream(ctx, &buf, nx, ny, nz, fetch, nil, tspsz.Options{
		Variant: tspsz.TspSZ1, Mode: tspsz.ModeAbsolute, ErrBound: 0.001, Workers: 4,
	})
	wantCancelled(t, err, context.Canceled)
	waitNoGoroutineLeak(t, before)
}

// BenchmarkCompressStream and BenchmarkCompressInMemory compress the same
// 3D field through the streaming and resident paths, so the trajectory
// JSON shows the throughput and allocation cost of out-of-core mode next
// to its in-memory equivalent. Both are dominated by coupled-bound
// derivation (several µs per vertex), which each path pays once per
// vertex; BenchmarkCompressStreamEb supplies precomputed bounds through
// the EbFetcher, isolating the streaming machinery itself.
func BenchmarkCompressStream(b *testing.B) {
	nx, ny, nz := 32, 32, 64
	f := laminarField(nx, ny, nz)
	opts := tspsz.Options{Variant: tspsz.TspSZ1, Mode: tspsz.ModeAbsolute, ErrBound: 0.001, Workers: 4}
	b.SetBytes(int64(f.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countingDiscard
		if _, err := tspsz.CompressStream(nil, &sink, nx, ny, nz, tspsz.FieldLayers(f), nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressInMemory(b *testing.B) {
	f := laminarField(32, 32, 64)
	opts := tspsz.Options{Variant: tspsz.TspSZ1, Mode: tspsz.ModeAbsolute, ErrBound: 0.001, Workers: 4}
	b.SetBytes(int64(f.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tspsz.Compress(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressStreamEb(b *testing.B) {
	nx, ny, nz := 64, 64, 256
	f := laminarField(nx, ny, nz)
	bounds := make([]float64, nx*ny)
	for i := range bounds {
		bounds[i] = 0.001
	}
	eb := tspsz.EbFetcherFunc(func(k int) ([]float64, error) { return bounds, nil })
	opts := tspsz.Options{Variant: tspsz.TspSZ1, Mode: tspsz.ModeAbsolute, ErrBound: 0.001, Workers: 4}
	b.SetBytes(int64(f.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countingDiscard
		if _, err := tspsz.CompressStream(nil, &sink, nx, ny, nz, tspsz.FieldLayers(f), eb, opts); err != nil {
			b.Fatal(err)
		}
	}
}
