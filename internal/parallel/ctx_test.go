package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// countingCtx is a context whose Err() flips to context.Canceled after a
// fixed number of Err() calls, making "cancellation arrives mid-dispatch"
// deterministic regardless of scheduling: For polls Err() at every grain
// boundary, so the k-th poll is the cancellation point.
type countingCtx struct {
	context.Context
	calls     atomic.Int64
	cancelAt  int64
	cancelled atomic.Bool
}

func newCountingCtx(cancelAt int) *countingCtx {
	return &countingCtx{Context: context.Background(), cancelAt: int64(cancelAt)}
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.cancelAt {
		c.cancelled.Store(true)
		return context.Canceled
	}
	return nil
}

// A nil ctx never cancels.
func TestCtxForErrNilCtxDelegates(t *testing.T) {
	var ran atomic.Int64
	if err := For(nil, 100, 4, 8, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d of 100", ran.Load())
	}
}

func TestCtxForErrPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := For(ctx, 100, 4, 8, func(i int) error { called = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if called {
		t.Error("body ran on a pre-cancelled context")
	}
}

func TestCtxForErrDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := For(ctx, 10, 2, 1, func(i int) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestCtxForErrMidFlightCancellationSerial(t *testing.T) {
	// Serial path (workers=1): Err() is polled once before the initial
	// dispatch and once per grain, so cancelAt=3 lets exactly two grains
	// (iterations 0..3 with grain=2) run before cancellation lands.
	ctx := newCountingCtx(3)
	var ran atomic.Int64
	err := For(ctx, 100, 1, 2, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d iterations, want 4 (two grains of 2)", got)
	}
}

func TestCtxForErrMidFlightCancellationParallel(t *testing.T) {
	ctx := newCountingCtx(10)
	var ran atomic.Int64
	err := For(ctx, 10_000, 4, 1, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := ran.Load(); got >= 10_000 {
		t.Fatalf("cancellation did not stop dispatch: all %d iterations ran", got)
	}
}

func TestCtxForErrBodyErrorBeatsCancellation(t *testing.T) {
	// A loop-body failure is more specific than the caller's cancellation;
	// when both happen the body error must win.
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		err := For(ctx, 100, workers, 1, func(i int) error {
			if i == 7 {
				cancel()
				return boom
			}
			return nil
		})
		cancel()
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: want body error, got %v", workers, err)
		}
	}
}

func TestCtxForErrEarliestErrorWins(t *testing.T) {
	e3, e9 := errors.New("e3"), errors.New("e9")
	err := For(context.Background(), 100, 4, 1, func(i int) error {
		switch i {
		case 3:
			return e3
		case 9:
			return e9
		}
		return nil
	})
	if !errors.Is(err, e3) {
		t.Fatalf("want earliest-index error e3, got %v", err)
	}
}

func TestCtxForErrPanicContained(t *testing.T) {
	err := For(context.Background(), 50, 4, 1, func(i int) error {
		if i == 13 {
			panic("kaboom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %T %v", err, err)
	}
	if pe.PanicValue() != "kaboom" {
		t.Fatalf("panic value = %v", pe.PanicValue())
	}
}

func TestCtxForErrCompletesWithLiveCtx(t *testing.T) {
	var seen [5000]atomic.Int32
	if err := For(context.Background(), len(seen), 8, 16, func(i int) error {
		seen[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, seen[i].Load())
		}
	}
}

// The range tests run For over Ranges with one slot per range, the shape
// of the per-range reductions (huffman's histogram, skeleton's critical
// point gather).

func TestCtxForChunksErrNilCtxDelegates(t *testing.T) {
	var ran atomic.Int64
	rs := Ranges(100, 4)
	if err := For(nil, len(rs), 4, 1, func(r int) error {
		ran.Add(int64(rs[r][1] - rs[r][0]))
		return nil
	}); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if ran.Load() != 100 {
		t.Fatalf("covered %d of 100", ran.Load())
	}
}

func TestCtxForChunksErrPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	rs := Ranges(100, 4)
	err := For(ctx, len(rs), 4, 1, func(r int) error { called = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if called {
		t.Error("body ran on a pre-cancelled context")
	}
}

func TestCtxForChunksErrCoversRange(t *testing.T) {
	var seen [777]atomic.Int32
	rs := Ranges(len(seen), 5)
	if err := For(context.Background(), len(rs), 5, 1, func(r int) error {
		for i := rs[r][0]; i < rs[r][1]; i++ {
			seen[i].Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, seen[i].Load())
		}
	}
}

func TestCtxForChunksErrBodyError(t *testing.T) {
	boom := errors.New("boom")
	rs := Ranges(100, 4)
	err := For(context.Background(), len(rs), 4, 1, func(r int) error {
		if rs[r][0] <= 50 && 50 < rs[r][1] {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want body error, got %v", err)
	}
}

func TestCtxReduceRangesErrCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs := Ranges(1000, 8)
	out := make([]int, len(rs))
	err := For(ctx, len(rs), 4, 1, func(r int) error {
		out[r] = rs[r][1] - rs[r][0]
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for r, v := range out {
		if v != 0 {
			t.Fatalf("range %d computed on a cancelled context", r)
		}
	}
}

func TestCtxReduceRangesErrSumsWithLiveCtx(t *testing.T) {
	rs := Ranges(1000, 8)
	out := make([]int, len(rs))
	if err := For(context.Background(), len(rs), 4, 1, func(r int) error {
		out[r] = rs[r][1] - rs[r][0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range out {
		total += v
	}
	if total != 1000 {
		t.Fatalf("ranges cover %d of 1000", total)
	}
}

func TestCtxDispatchersNoGoroutineLeakOnCancel(t *testing.T) {
	// Cancel mid-flight many times; every dispatcher call must join all its
	// workers before returning. The -race build catches unsynchronized
	// leftovers touching `ran`; an actual leak would also trip the
	// goroutine-count checks in the package-level leak tests of callers.
	for trial := 0; trial < 50; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		done := make(chan error, 1)
		go func() {
			done <- For(ctx, 1_000_000, 4, 1, func(i int) error {
				ran.Add(1)
				return nil
			})
		}()
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: %v", trial, err)
		}
		before := ran.Load()
		// After For returns, no worker may still be running the body.
		time.Sleep(100 * time.Microsecond)
		if after := ran.Load(); after != before {
			t.Fatalf("trial %d: body still running after return (%d -> %d)", trial, before, after)
		}
	}
}
