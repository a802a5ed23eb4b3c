package parallel

import (
	"sync"
	"testing"
)

func TestSizedWorkers(t *testing.T) {
	cases := []struct {
		workers, tasks int
		bytes, minPer  int64
		want           int
	}{
		{8, 16, 1 << 20, 64 << 10, 8},  // plenty of work: budget wins
		{8, 3, 1 << 20, 64 << 10, 3},   // fewer tasks than workers
		{8, 16, 100, 64 << 10, 1},      // tiny payload: serial
		{8, 16, 96 << 10, 64 << 10, 2}, // 96 KiB at 64 KiB/worker: 2
		{8, 16, 128 << 10, 64 << 10, 2},
		{8, 16, 1 << 20, 0, 8}, // size clamp disabled
		{8, 0, 1 << 20, 1, 1},  // zero tasks still returns 1
		{1, 16, 1 << 30, 1, 1}, // explicit serial stays serial
	}
	for _, c := range cases {
		if got := SizedWorkers(c.workers, c.tasks, c.bytes, c.minPer); got != c.want {
			t.Errorf("SizedWorkers(%d, %d, %d, %d) = %d, want %d",
				c.workers, c.tasks, c.bytes, c.minPer, got, c.want)
		}
	}
}

// The clamp must actually bound dispatch: a sharded stage whose payload only
// justifies one worker dispatches serially even when the caller's budget
// says 8, observed through the process-global dispatch hook (the same way
// the PR5 pool-clamp regressions are pinned).
func TestSizedWorkersClampsDispatch(t *testing.T) {
	var mu sync.Mutex
	var launched []int
	SetHook(func(op string, n, workers int) func() {
		mu.Lock()
		launched = append(launched, workers)
		mu.Unlock()
		return nil
	})
	defer SetHook(nil)

	// A 16-chunk section whose payload is far below one worker's worth.
	w := SizedWorkers(8, 16, 4<<10, 64<<10)
	_ = For(nil, 16, w, 1, func(i int) error { return nil })
	// The same section with a payload that keeps every worker busy.
	w = SizedWorkers(8, 16, 2<<20, 64<<10)
	_ = For(nil, 16, w, 1, func(i int) error { return nil })

	mu.Lock()
	defer mu.Unlock()
	if len(launched) != 2 {
		t.Fatalf("observed %d dispatches, want 2", len(launched))
	}
	if launched[0] != 1 {
		t.Errorf("undersized section dispatched %d workers, want 1", launched[0])
	}
	if launched[1] != 8 {
		t.Errorf("full-size section dispatched %d workers, want 8", launched[1])
	}
}
