package parallel

import (
	"context"
	"sync"
)

// Wavefront runs fn(i, j) for every cell of an nx×ny grid, i in [0, nx)
// and j in [0, ny), on up to `workers` goroutines, and starts cell (i, j)
// as soon as fn has returned for (i-1, j) and (i, j-1). A cell that is
// componentwise ≤ (i, j) is therefore an ancestor that has returned before
// (i, j) starts, one that is ≥ (i, j) a descendant that starts only after
// (i, j) has returned, and only incomparable cells run at the same time.
// No barrier separates the anti-diagonals: a worker that finishes a cell
// takes the oldest ready one. The pool is capped at min(nx, ny), the most
// cells that can be incomparable at once; with one worker the cells run
// in raster order (i fastest) on the calling goroutine.
//
// The contract is For's. ctx is checked before each cell, and a nil ctx
// never cancels. A panic in fn is contained as a *PanicError. The first
// failure stops new cells and wakes idle workers; cells in flight finish,
// and every goroutine is joined before Wavefront returns. The returned
// error is the failure of the earliest cell in raster order among those
// that ran, otherwise the context's error when the grid stopped early.
// The dispatch hook sees one dispatch of nx·ny items per grid.
func Wavefront(ctx context.Context, nx, ny, workers int, fn func(i, j int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	nx, ny = max(nx, 0), max(ny, 0)
	cell := func(c int) error { return fn(c%nx, c/nx) }
	if workers = min(Workers(workers), nx, ny); workers <= 1 {
		if done := beginDispatch("Wavefront", nx*ny, 1); done != nil {
			defer done()
		}
		for c := range nx * ny {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(cell, c); err != nil {
				return err
			}
		}
		return nil
	}
	if done := beginDispatch("Wavefront", nx*ny, workers); done != nil {
		defer done()
	}
	wf := newWavefront(nx, ny)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wf.work(ctx, cell)
		}()
	}
	wg.Wait()
	if wf.err != nil {
		return wf.err
	}
	if wf.cancelled {
		return ctx.Err()
	}
	return nil
}

// wavefront is the shared state of one Wavefront dispatch. Cells are
// numbered in raster order, c = i + j·nx. Everything is guarded by mu, and
// because a cell is queued under mu by the worker that ran its last
// predecessor and taken under mu by the worker that runs it, each cell's
// fn happens after its ancestors' fn.
type wavefront struct {
	mu   sync.Mutex
	wake sync.Cond // signalled when cells are queued or the dispatch stops

	nx      int
	pending []uint8 // predecessors of each cell that have not returned
	ready   []int   // queue of cells whose predecessors have all returned
	head    int     // ready[head:] is yet to be taken
	left    int     // cells that have not returned

	stop      bool  // no further cell starts: all returned, or a failure
	cancelled bool  // a worker found ctx done before a cell
	err       error // failure of the earliest cell in raster order
	errCell   int
}

func newWavefront(nx, ny int) *wavefront {
	wf := &wavefront{nx: nx, pending: make([]uint8, nx*ny), ready: make([]int, 0, nx*ny), left: nx * ny}
	wf.wake.L = &wf.mu
	for c := range wf.pending {
		if c%nx > 0 {
			wf.pending[c]++
		}
		if c >= nx {
			wf.pending[c]++
		}
		if wf.pending[c] == 0 {
			wf.ready = append(wf.ready, c)
		}
	}
	return wf
}

// work is one worker: it takes ready cells, oldest first, until the
// dispatch stops.
func (wf *wavefront) work(ctx context.Context, cell func(c int) error) {
	wf.mu.Lock()
	defer wf.mu.Unlock()
	for {
		for wf.head == len(wf.ready) && !wf.stop {
			wf.wake.Wait()
		}
		if wf.stop {
			return
		}
		c := wf.ready[wf.head]
		wf.head++
		wf.mu.Unlock()
		cerr := ctx.Err()
		var err error
		if cerr == nil {
			err = call(cell, c)
		}
		wf.mu.Lock()
		switch {
		case cerr != nil:
			wf.cancelled = true
			wf.halt()
		case err != nil:
			if wf.err == nil || c < wf.errCell {
				wf.err, wf.errCell = err, c
			}
			wf.halt()
		default:
			wf.left--
			if wf.left == 0 {
				wf.halt()
			} else if wf.finish(c) > 1 {
				// This worker takes one of the queued cells itself.
				wf.wake.Signal()
			}
		}
	}
}

// halt stops the dispatch and wakes every idle worker to exit.
func (wf *wavefront) halt() {
	wf.stop = true
	wf.wake.Broadcast()
}

// finish releases the successors of returned cell c, (i+1, j) and
// (i, j+1), and reports how many of them it queued.
func (wf *wavefront) finish(c int) int {
	queued := 0
	if c%wf.nx+1 < wf.nx {
		queued += wf.release(c + 1)
	}
	if c+wf.nx < len(wf.pending) {
		queued += wf.release(c + wf.nx)
	}
	return queued
}

// release counts one returned predecessor of cell c and queues c once
// none is left.
func (wf *wavefront) release(c int) int {
	wf.pending[c]--
	if wf.pending[c] > 0 {
		return 0
	}
	wf.ready = append(wf.ready, c)
	return 1
}
