package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// dispatchRecorder captures what the dispatch hook is told; the reported
// worker count is exactly the size of the pool the dispatcher spawns.
type dispatchRecorder struct {
	ops       []string
	ns        []int
	workers   []int
	completed atomic.Int64
}

func (r *dispatchRecorder) hook(op string, n, workers int) func() {
	r.ops = append(r.ops, op)
	r.ns = append(r.ns, n)
	r.workers = append(r.workers, workers)
	return func() { r.completed.Add(1) }
}

func withRecorder(t *testing.T) *dispatchRecorder {
	t.Helper()
	r := &dispatchRecorder{}
	SetHook(r.hook)
	t.Cleanup(func() { SetHook(nil) })
	return r
}

// Regression for the pool over-spawn: For(ctx, 10, 256, 1, fn) used to
// launch 256 goroutines for 10 single-item chunks. The pool must be capped
// at ceil(n/grain).
func TestForCapsPoolAtChunkCount(t *testing.T) {
	cases := []struct {
		name              string
		n, workers, grain int
		wantPool          int
	}{
		{"tiny-n-huge-workers", 10, 256, 1, 10},
		{"grain-rounds-up", 100, 64, 30, 4},
		{"exact-division", 32, 64, 8, 4},
		{"single-chunk-serial", 5, 8, 5, 1},
		{"zero-items", 0, 8, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := withRecorder(t)
			var visited atomic.Int64
			if err := For(nil, tc.n, tc.workers, tc.grain, func(i int) error { visited.Add(1); return nil }); err != nil {
				t.Fatal(err)
			}
			if got := visited.Load(); got != int64(tc.n) {
				t.Fatalf("visited %d of %d iterations", got, tc.n)
			}
			if len(rec.workers) != 1 || rec.workers[0] != tc.wantPool {
				t.Fatalf("For(%d, %d, %d) reported pool %v, want [%d]",
					tc.n, tc.workers, tc.grain, rec.workers, tc.wantPool)
			}
			if rec.completed.Load() != 1 {
				t.Fatalf("dispatch completion ran %d times, want 1", rec.completed.Load())
			}
		})
	}
}

// The pool cap holds with a live ctx and a failing body as well.
func TestForErrCapsPoolAtChunkCount(t *testing.T) {
	rec := withRecorder(t)
	var visited atomic.Int64
	err := For(context.Background(), 10, 256, 1, func(i int) error {
		visited.Add(1)
		if i == 9 {
			return errors.New("last iteration fails")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected the body error")
	}
	if visited.Load() != 10 {
		t.Fatalf("visited %d of 10 iterations", visited.Load())
	}
	if len(rec.workers) != 1 || rec.workers[0] != 10 {
		t.Fatalf("For(10, 256, 1) reported pool %v, want [10]", rec.workers)
	}
}

func TestReduceRangesErrCapsPool(t *testing.T) {
	rec := withRecorder(t)
	rs := Ranges(6, 6)
	out := make([]int, len(rs))
	if err := For(nil, len(rs), 512, 1, func(r int) error {
		out[r] = rs[r][1] - rs[r][0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rs) != 6 {
		t.Fatalf("got %d ranges, want 6", len(rs))
	}
	// 6 ranges dispatched with grain 1: pool of 6, not 512.
	if len(rec.workers) != 1 || rec.workers[0] != 6 {
		t.Fatalf("For over Ranges(6, 6) reported pool %v, want [6]", rec.workers)
	}
}

// Peak live-goroutine check: with every iteration parked, the process may
// hold at most ceil(n/grain) extra goroutines (plus the dispatcher);
// before the cap, For(10, 256, 1) held up to 256.
func TestForPeakGoroutines(t *testing.T) {
	const n, workers, grain = 10, 256, 1
	base := runtime.NumGoroutine()
	gate := make(chan struct{})
	var entered atomic.Int64
	done := make(chan struct{})
	go func() {
		_ = For(nil, n, workers, grain, func(i int) error {
			entered.Add(1)
			<-gate
			return nil
		})
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for entered.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d iterations started", entered.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	// All n single-item chunks are claimed and parked, so every pool
	// goroutine is still alive and countable.
	peak := runtime.NumGoroutine() - base
	close(gate)
	<-done
	// n pool goroutines + the dispatcher, with slack for runtime/test
	// helper goroutines that may come and go.
	if limit := n + 4; peak > limit {
		t.Fatalf("peak %d extra goroutines, want <= %d (pool must be capped at ceil(n/grain)=%d)", peak, limit, n)
	}
}

// The hook sees the serial fast path as a one-worker dispatch, whether
// one worker was asked for or the loop fits in a single grain.
func TestHookSerialPath(t *testing.T) {
	rec := withRecorder(t)
	for _, c := range []struct{ n, workers, grain int }{{3, 1, 1}, {4, 8, 4}, {4, 1, 1}} {
		if err := For(nil, c.n, c.workers, c.grain, func(i int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range rec.workers {
		if w != 1 {
			t.Fatalf("dispatch %d (%s) reported %d workers on the serial path, want 1", i, rec.ops[i], w)
		}
	}
	if len(rec.ops) != 3 {
		t.Fatalf("recorded %d dispatches, want 3", len(rec.ops))
	}
}
