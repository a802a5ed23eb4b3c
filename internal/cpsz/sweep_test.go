package cpsz

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"tspsz/internal/datagen"
	"tspsz/internal/ebound"
	"tspsz/internal/parallel"
	"tspsz/internal/streamerr"
)

// TestCompressCancelsAtTileDispatch cancels a one-region compress from the
// dispatch hook as its tiles are dispatched: the compress must fail with
// ErrCancelled without dispatching another grid or leaking a worker, and
// the next uncancelled compress must write the archive it wrote before.
func TestCompressCancelsAtTileDispatch(t *testing.T) {
	f := datagen.Hurricane(32, 32, 8) // one slab: 8×8 tiles
	opts := Options{Mode: ebound.Absolute, ErrBound: 5e-3, Workers: 2}
	want, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var grids atomic.Int32
	parallel.SetHook(func(op string, n, _ int) func() {
		if op != "Wavefront" {
			return nil
		}
		if grids.Add(1) == 1 {
			if n != 64 {
				t.Errorf("tile dispatch of %d tiles, want 64", n)
			}
			cancel()
		}
		return nil
	})
	_, err = CompressCtx(ctx, f, opts)
	parallel.SetHook(nil)
	if !errors.Is(err, streamerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("compress cancelled at its tile dispatch returned %v, want ErrCancelled", err)
	}
	if n := grids.Load(); n != 1 {
		t.Fatalf("%d tile grids dispatched, want 1: the compress went on after the cancel", n)
	}
	checkNoGoroutineLeak(t, before)

	got, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes, want.Bytes) {
		t.Fatal("archive after a cancelled compress differs from the one before")
	}
}

// BenchmarkCompressWindow3D compresses one 32×32×8 hurricane window, the
// shape of the benchmark's 3D windows. It is a single region, so at
// workers=2 its tiles run on both workers in dependency order.
func BenchmarkCompressWindow3D(b *testing.B) {
	f := datagen.Hurricane(32, 32, 8)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := Options{Mode: ebound.Absolute, ErrBound: 5e-3, Workers: workers}
			b.SetBytes(int64(f.SizeBytes()))
			for i := 0; i < b.N; i++ {
				if _, err := Compress(f, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
