package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// gridRun records what a Wavefront dispatch did with each cell of an
// nx×ny grid: how often it started and whether it returned, plus every
// start that came before a predecessor had returned.
type gridRun struct {
	nx, ny     int
	starts     []atomic.Int32
	returned   []atomic.Bool
	violations atomic.Int32
	firstBad   atomic.Value // string: the first violation seen
}

func newGridRun(nx, ny int) *gridRun {
	return &gridRun{nx: nx, ny: ny, starts: make([]atomic.Int32, nx*ny), returned: make([]atomic.Bool, nx*ny)}
}

// enter is the first thing fn does for cell (i, j): it counts the start
// and checks that both predecessors have returned.
func (g *gridRun) enter(i, j int) {
	g.starts[i+j*g.nx].Add(1)
	for _, p := range [][2]int{{i - 1, j}, {i, j - 1}} {
		if p[0] >= 0 && p[1] >= 0 && !g.returned[p[0]+p[1]*g.nx].Load() {
			if g.violations.Add(1) == 1 {
				g.firstBad.Store(fmt.Sprintf("cell (%d, %d) started before (%d, %d) returned", i, j, p[0], p[1]))
			}
		}
	}
}

// leave is the last thing fn does for cell (i, j).
func (g *gridRun) leave(i, j int) { g.returned[i+j*g.nx].Store(true) }

// ran reports how many times cell (i, j) started.
func (g *gridRun) ran(i, j int) int { return int(g.starts[i+j*g.nx].Load()) }

func (g *gridRun) checkOrder(t *testing.T) {
	t.Helper()
	if g.violations.Load() > 0 {
		t.Fatalf("%d dependency violations; first: %s", g.violations.Load(), g.firstBad.Load())
	}
}

// runGrid runs Wavefront and fails the test if it has not returned
// within a minute, so a lost wake-up shows as a failure, not a hung run.
func runGrid(t *testing.T, ctx context.Context, nx, ny, workers int, fn func(i, j int) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Wavefront(ctx, nx, ny, workers, fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		t.Fatalf("Wavefront(%d×%d, workers %d) did not return", nx, ny, workers)
		return nil
	}
}

// cellDelay is a fixed, uneven work time per cell: the origin is slow, so
// a cell started on one edge alone finds the origin still running, and
// the rest vary so that workers fall out of step.
func cellDelay(i, j int) time.Duration {
	if i == 0 && j == 0 {
		return 2 * time.Millisecond
	}
	return time.Duration((i*7+j*13)%5) * 150 * time.Microsecond
}

// Every cell runs exactly once, and only after both of its predecessors
// have returned. The sleeps force interleavings in which a start that
// waited for one edge only would find the other predecessor running.
func TestWavefrontRunsEachCellOnceAfterItsPredecessors(t *testing.T) {
	before := goroutineCount(t)
	for _, shape := range [][2]int{{2, 2}, {5, 3}, {3, 6}, {8, 8}} {
		for _, workers := range []int{1, 2, 3, 8} {
			nx, ny := shape[0], shape[1]
			t.Run(fmt.Sprintf("%dx%d/workers=%d", nx, ny, workers), func(t *testing.T) {
				g := newGridRun(nx, ny)
				err := runGrid(t, context.Background(), nx, ny, workers, func(i, j int) error {
					g.enter(i, j)
					time.Sleep(cellDelay(i, j))
					g.leave(i, j)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				g.checkOrder(t)
				for j := range ny {
					for i := range nx {
						if n := g.ran(i, j); n != 1 {
							t.Fatalf("cell (%d, %d) ran %d times, want 1", i, j, n)
						}
					}
				}
			})
		}
	}
	if after := goroutinesSettle(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// Incomparable cells do run at the same time: on an 8×8 grid at two
// workers, some cell starts while another is running.
func TestWavefrontOverlapsIncomparableCells(t *testing.T) {
	var running, overlapped atomic.Int32
	if err := runGrid(t, nil, 8, 8, 2, func(i, j int) error {
		if running.Add(1) > 1 {
			overlapped.Store(1)
		}
		time.Sleep(200 * time.Microsecond)
		running.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() == 0 {
		t.Fatal("no two cells ever ran at once at two workers")
	}
}

// Chains (1×n, n×1) and empty grids: a chain has one order, so its cells
// run in it on one goroutine, and an empty grid runs nothing. The hook
// sees one dispatch per grid, of every cell, on one worker.
func TestWavefrontThinAndEmptyGrids(t *testing.T) {
	for _, shape := range [][2]int{{1, 7}, {7, 1}, {1, 1}, {0, 5}, {5, 0}, {0, 0}} {
		for _, workers := range []int{1, 2, 3, 8} {
			nx, ny := shape[0], shape[1]
			t.Run(fmt.Sprintf("%dx%d/workers=%d", nx, ny, workers), func(t *testing.T) {
				rec := withRecorder(t)
				var order []int
				err := runGrid(t, context.Background(), nx, ny, workers, func(i, j int) error {
					order = append(order, i+j*nx)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(order) != nx*ny {
					t.Fatalf("ran %d cells, want %d", len(order), nx*ny)
				}
				for k, c := range order {
					if c != k {
						t.Fatalf("cell %d ran at position %d: %v", c, k, order)
					}
				}
				if len(rec.ops) != 1 || rec.ops[0] != "Wavefront" || rec.ns[0] != nx*ny || rec.workers[0] != 1 {
					t.Fatalf("hook saw %v %v %v, want one Wavefront dispatch of %d cells on 1 worker", rec.ops, rec.ns, rec.workers, nx*ny)
				}
				if rec.completed.Load() != 1 {
					t.Fatalf("dispatch completion ran %d times, want 1", rec.completed.Load())
				}
			})
		}
	}
}

// The pool is capped at the widest anti-diagonal, min(nx, ny), and the
// hook sees one dispatch per grid.
func TestWavefrontHookOncePerGrid(t *testing.T) {
	cases := []struct{ nx, ny, workers, wantPool int }{
		{8, 8, 2, 2},
		{8, 3, 8, 3},
		{2, 9, 8, 2},
		{4, 4, 1, 1},
	}
	for _, c := range cases {
		rec := withRecorder(t)
		if err := runGrid(t, nil, c.nx, c.ny, c.workers, func(i, j int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if len(rec.ops) != 1 || rec.ops[0] != "Wavefront" || rec.ns[0] != c.nx*c.ny || rec.workers[0] != c.wantPool {
			t.Fatalf("%d×%d at %d workers: hook saw %v %v %v, want one Wavefront dispatch of %d cells on %d workers",
				c.nx, c.ny, c.workers, rec.ops, rec.ns, rec.workers, c.nx*c.ny, c.wantPool)
		}
		if rec.completed.Load() != 1 {
			t.Fatalf("dispatch completion ran %d times, want 1", rec.completed.Load())
		}
	}
}

// isDescendant reports whether (i, j) is a strict descendant of (ci, cj).
func isDescendant(i, j, ci, cj int) bool { return i >= ci && j >= cj && (i != ci || j != cj) }

// An error or a panic at a chosen cell comes back as that failure: no
// descendant of the cell starts, and no worker is left behind.
func TestWavefrontFailureAtCell(t *testing.T) {
	before := goroutineCount(t)
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 3, 8} {
		for _, at := range [][2]int{{0, 0}, {3, 0}, {0, 4}, {2, 3}, {5, 5}} {
			for _, panics := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/cell=%v/panic=%v", workers, at, panics)
				t.Run(name, func(t *testing.T) {
					g := newGridRun(6, 6)
					err := runGrid(t, context.Background(), 6, 6, workers, func(i, j int) error {
						g.enter(i, j)
						defer g.leave(i, j)
						if i == at[0] && j == at[1] {
							if panics {
								panic("cell panics")
							}
							return boom
						}
						time.Sleep(cellDelay(i, j) / 4)
						return nil
					})
					var pe *PanicError
					if panics && !errors.As(err, &pe) {
						t.Fatalf("got %v, want a *PanicError", err)
					}
					if !panics && !errors.Is(err, boom) {
						t.Fatalf("got %v, want the cell's error", err)
					}
					g.checkOrder(t)
					for j := range 6 {
						for i := range 6 {
							if isDescendant(i, j, at[0], at[1]) && g.ran(i, j) > 0 {
								t.Fatalf("cell (%d, %d) ran after its ancestor %v failed", i, j, at)
							}
							if workers == 1 && i+6*j > at[0]+6*at[1] && g.ran(i, j) > 0 {
								t.Fatalf("serial: cell (%d, %d) ran after cell %v failed", i, j, at)
							}
						}
					}
				})
			}
		}
	}
	if after := goroutinesSettle(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// When two cells fail, the one earlier in raster order wins, whichever
// returned first. Cells (1, 0) and (0, 1) both become ready when the
// origin returns; each waits until both have started, then (0, 1) fails
// at once and (1, 0) a little later.
func TestWavefrontEarliestFailureWins(t *testing.T) {
	first, second := errors.New("cell (1, 0)"), errors.New("cell (0, 1)")
	for _, workers := range []int{2, 3, 8} {
		for trial := 0; trial < 20; trial++ {
			var started atomic.Int32
			err := runGrid(t, context.Background(), 4, 4, workers, func(i, j int) error {
				switch {
				case i == 1 && j == 0, i == 0 && j == 1:
					started.Add(1)
					deadline := time.Now().Add(5 * time.Second)
					for started.Load() < 2 && time.Now().Before(deadline) {
						time.Sleep(50 * time.Microsecond)
					}
					if i == 0 {
						return second
					}
					time.Sleep(time.Millisecond)
					return first
				}
				return nil
			})
			if !errors.Is(err, first) {
				t.Fatalf("workers=%d trial %d: got %v, want the earliest cell's error", workers, trial, err)
			}
		}
	}
}

// A cancel from inside fn starts no further cell: in raster order at one
// worker, nothing after the cancelling cell; at several, no descendant of
// it, and nothing at all when the origin cancels, since every other cell
// descends from it. The dispatch returns the context's error.
func TestWavefrontCancelFromInsideCell(t *testing.T) {
	before := goroutineCount(t)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, at := range [][2]int{{0, 0}, {2, 1}, {1, 3}, {3, 4}} {
			t.Run(fmt.Sprintf("workers=%d/cell=%v", workers, at), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				g := newGridRun(5, 5)
				err := runGrid(t, ctx, 5, 5, workers, func(i, j int) error {
					g.enter(i, j)
					defer g.leave(i, j)
					if i == at[0] && j == at[1] {
						cancel()
					}
					time.Sleep(cellDelay(i, j) / 4)
					return nil
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("got %v, want context.Canceled", err)
				}
				g.checkOrder(t)
				for j := range 5 {
					for i := range 5 {
						if g.ran(i, j) == 0 {
							continue
						}
						if isDescendant(i, j, at[0], at[1]) {
							t.Fatalf("cell (%d, %d) started after its ancestor %v cancelled", i, j, at)
						}
						if workers == 1 && i+5*j > at[0]+5*at[1] {
							t.Fatalf("cell (%d, %d) started after cell %v cancelled", i, j, at)
						}
					}
				}
			})
		}
	}
	if after := goroutinesSettle(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// ctx is checked before each cell: with a context that reports done from
// its k-th check on, at most k-1 cells start (the first check is the
// dispatch's own), and a done context starts none and dispatches nothing.
func TestWavefrontChecksCtxBeforeEachCell(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		for _, k := range []int{1, 2, 5, 17} {
			ctx := newCountingCtx(k)
			var ran atomic.Int32
			err := runGrid(t, ctx, 6, 6, workers, func(i, j int) error {
				ran.Add(1)
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d k=%d: got %v, want context.Canceled", workers, k, err)
			}
			if n := int(ran.Load()); n > k-1 {
				t.Fatalf("workers=%d k=%d: %d cells ran, want at most %d", workers, k, n, k-1)
			}
		}
	}

	rec := withRecorder(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	if err := runGrid(t, ctx, 4, 4, 2, func(i, j int) error { ran.Add(1); return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: got %v, want context.Canceled", err)
	}
	if ran.Load() != 0 || len(rec.ops) != 0 {
		t.Fatalf("pre-cancelled: %d cells ran, %d dispatches seen, want none", ran.Load(), len(rec.ops))
	}
}

// A failing cell's error wins over a cancellation seen by another worker.
func TestWavefrontErrorBeatsCancellation(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := runGrid(t, ctx, 6, 6, 2, func(i, j int) error {
		if i == 1 && j == 1 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the cell's error", err)
	}
}
