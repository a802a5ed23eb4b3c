package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForErrPropagatesFirstError(t *testing.T) {
	want := errors.New("boom")
	for _, workers := range []int{1, 2, 4, 8} {
		err := For(nil, 1000, workers, 8, func(i int) error {
			if i == 137 || i == 700 {
				return fmt.Errorf("at %d: %w", i, want)
			}
			return nil
		})
		if !errors.Is(err, want) {
			t.Fatalf("workers=%d: got %v, want wrapped boom", workers, err)
		}
	}
}

func TestForErrReportsSmallestIndex(t *testing.T) {
	// With a single worker the scan is in order, so the earliest failing
	// iteration must be the one reported.
	err := For(nil, 100, 1, 1, func(i int) error {
		if i >= 40 {
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 40" {
		t.Fatalf("got %v, want fail at 40", err)
	}
}

func TestForErrStopsClaimingAfterFailure(t *testing.T) {
	var ran atomic.Int64
	err := For(nil, 1_000_000, 4, 1, func(i int) error {
		ran.Add(1)
		return errors.New("immediate")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// Every worker can have at most one chunk in flight when the stop flag
	// rises; far fewer than n iterations may run.
	if n := ran.Load(); n > 10_000 {
		t.Fatalf("ran %d iterations after first failure; work was not drained early", n)
	}
}

func TestForChunksErrNilOnSuccess(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var sum atomic.Int64
		rs := Ranges(1000, workers)
		if err := For(nil, len(rs), workers, 1, func(r int) error {
			for i := rs[r][0]; i < rs[r][1]; i++ {
				sum.Add(int64(i))
			}
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Load() != 499500 {
			t.Fatalf("workers=%d: sum %d", workers, sum.Load())
		}
	}
}

func TestForChunksErrReturnsLowestChunkError(t *testing.T) {
	rs := Ranges(100, 4)
	err := For(nil, len(rs), 4, 1, func(r int) error {
		if lo := rs[r][0]; lo >= 25 {
			return fmt.Errorf("chunk at %d", lo)
		}
		return nil
	})
	if err == nil || err.Error() != "chunk at 25" {
		t.Fatalf("got %v, want chunk at 25", err)
	}
}

func TestReduceRangesErr(t *testing.T) {
	rs := Ranges(100, 7)
	out := make([]int, len(rs))
	if err := For(nil, len(rs), 4, 1, func(r int) error {
		out[r] = rs[r][1] - rs[r][0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range out {
		total += v
	}
	if total != 100 {
		t.Fatalf("ranges cover %d of 100", total)
	}
	if err := For(nil, len(rs), 4, 1, func(r int) error {
		if rs[r][0] > 50 {
			return errors.New("range error")
		}
		return nil
	}); err == nil {
		t.Fatal("expected error")
	}
}

func TestPanicContainedSerialAndParallel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := For(nil, 100, workers, 1, func(i int) error {
			if i == 42 {
				panic("decode invariant violated")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want *PanicError", workers, err)
		}
		if pe.Value != "decode invariant violated" {
			t.Fatalf("panic value: %v", pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "parallel") {
			t.Fatalf("stack not captured: %q", pe.Stack)
		}
	}
	// A typed panic value survives containment on the serial path too.
	err := For(nil, 64, 1, 64, func(i int) error {
		if i == 0 {
			panic(errors.New("typed panic value"))
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("serial: got %v, want *PanicError", err)
	}
	if _, ok := pe.Value.(error); !ok {
		t.Fatalf("panic value %T, want the error it was raised with", pe.Value)
	}
}

// goroutineCount waits for transient goroutines to exit before counting,
// so a scheduler hiccup cannot fake a leak.
func goroutineCount(t *testing.T) int {
	t.Helper()
	var n int
	for i := 0; i < 100; i++ {
		n = runtime.NumGoroutine()
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m == n {
			return n
		}
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestConcurrentPanicsOneErrorNoLeaks is the pre-PR-4 crash class under
// the race detector: many workers panic at once mid-decode. Exactly one
// wrapped error must surface per call, the process must survive, and no
// worker goroutine may leak.
func TestConcurrentPanicsOneErrorNoLeaks(t *testing.T) {
	before := goroutineCount(t)
	for round := 0; round < 20; round++ {
		err := For(nil, 10_000, 8, 4, func(i int) error {
			if i%1000 == 7 {
				// Several workers hit a panicking iteration concurrently.
				panic(fmt.Sprintf("worker panic at %d", i))
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("round %d: got %v, want exactly one *PanicError", round, err)
		}
	}
	rs := Ranges(1024, 8)
	for round := 0; round < 20; round++ {
		err := For(nil, len(rs), 8, 1, func(r int) error {
			panic("every range panics")
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("ranges round %d: got %v", round, err)
		}
	}
	if after := goroutinesSettle(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// goroutinesSettle polls until at most want goroutines remain or a second
// has passed, and returns the last count. A worker that has signalled its
// WaitGroup may still be unwinding when For returns; it is gone a moment
// later, while a leaked one never is.
func goroutinesSettle(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}
