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

// TestCompressCancelsBetweenWaves cancels a one-region compress from the
// dispatch hook at its third tile wave: the compress must fail with
// ErrCancelled without dispatching another wave or leaking a worker, and
// the next uncancelled compress must write the archive it wrote before.
func TestCompressCancelsBetweenWaves(t *testing.T) {
	f := datagen.Hurricane(32, 32, 8) // one slab: 8×8 tiles, 15 waves
	opts := Options{Mode: ebound.Absolute, ErrBound: 5e-3, Workers: 2}
	want, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var waves atomic.Int32
	parallel.SetHook(func(op string, _, _ int) func() {
		if op == "For" && waves.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	_, err = CompressCtx(ctx, f, opts)
	parallel.SetHook(nil)
	if !errors.Is(err, streamerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("compress cancelled at wave 3 returned %v, want ErrCancelled", err)
	}
	if n := waves.Load(); n != 3 {
		t.Fatalf("%d waves dispatched, want 3: the region went on after the cancel", n)
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
// workers=2 its tiles run in waves.
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
