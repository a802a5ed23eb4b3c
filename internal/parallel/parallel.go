// Package parallel provides the shared-memory work distribution primitives
// TspSZ uses in place of OpenMP (§VII): one loop dispatcher, For, with
// dynamic chunk scheduling for load-imbalanced loops such as separatrix
// tracing; Wavefront, which runs the cells of a grid in dependency order
// (a cell once its left and lower neighbors are done, with no barrier
// between anti-diagonals) for the compressor's region tiles; Ranges for
// deterministic block decomposition; and Pipeline for the ordered
// streaming sweep. All share one error contract: panics contained as
// *PanicError, the earliest failure returned, every goroutine joined.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values < 1 become
// GOMAXPROCS.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs fn(i) for every i in [0, n) on up to `workers` goroutines with
// dynamic chunked scheduling (chunk size grain). The pool is capped at
// ceil(n/grain), the number of chunks there are to claim, so a small loop
// never launches workers that could only spin and exit.
//
// A panic in any iteration is recovered into a *PanicError. The first
// failure stops workers from claiming further chunks; in-flight chunks
// drain, every goroutine is joined before For returns, and the failure
// with the smallest iteration index among those that ran is returned.
//
// Workers re-check ctx.Err() before claiming each chunk, so a cancelled or
// expired context stops new work promptly without killing an iteration
// mid-flight. The returned error is the earliest loop-body failure if any
// iteration failed, otherwise the context's error verbatim when the loop
// stopped early; entry points classify it via streamerr. A nil ctx never
// cancels.
func For(ctx context.Context, n, workers, grain int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = Workers(workers)
	if grain < 1 {
		grain = 1
	}
	if max := (n + grain - 1) / grain; workers > max {
		workers = max
	}
	if workers <= 1 || n <= grain {
		if done := beginDispatch("For", n, 1); done != nil {
			defer done()
		}
		for lo := 0; lo < n; lo += grain {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				if err := call(fn, i); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if done := beginDispatch("For", n, workers); done != nil {
		defer done()
	}
	var next atomic.Int64
	var fe firstErr
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !fe.stop.Load() {
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					if err := call(fn, i); err != nil {
						fe.record(i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if fe.err != nil {
		return fe.err
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// Ranges splits [0, n) into at most `workers` contiguous ranges of
// near-equal size and returns them as [lo, hi) pairs in order. The
// partition is deterministic for a given (n, workers) pair, which the
// block-parallel compressor and the per-range reductions rely on: For over
// the ranges computes one partial result per range, and the caller merges
// them serially in range order.
func Ranges(n, workers int) [][2]int {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var out [][2]int
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}
