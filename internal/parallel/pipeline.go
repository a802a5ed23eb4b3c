package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// pipeSlot is one ring entry of the Pipeline's bounded in-flight window.
// The dispatcher resets it (fresh done channel) before handing index i to
// a worker; the worker stores the result and closes done; the emitter
// waits on done before consuming. Slot reuse is safe because the
// dispatcher cannot acquire the window semaphore for index i+window until
// the emitter has released index i.
type pipeSlot[R any] struct {
	done chan struct{}
	res  R
	err  error
}

// pipeItem carries a prepared input from the dispatcher to a worker.
type pipeItem[T any] struct {
	i  int
	in T
}

// Pipeline runs an ordered three-stage pipeline over [0, n): prepare(i)
// runs serially in index order on the calling goroutine, work(i, in) runs
// concurrently on up to `workers` goroutines, and emit(i, r) runs serially
// in strict index order on a single emitter goroutine. At most `window`
// items are in flight (prepared but not yet emitted) at once, which is
// what bounds the streaming compressor's working set: a fetched slab
// cannot be more than `window` regions ahead of the serial consumer.
//
// Error semantics match For's: panics in any stage are contained as
// *PanicError, every started item drains before the call returns, and the
// failure with the smallest index among those observed is returned.
// Items preceding the first failure in index order are emitted; after a
// failure (or cancellation) no further emits run. ctx is checked before
// each dispatch; a nil ctx never cancels. The returned error is the
// earliest stage failure if any, otherwise ctx.Err() when the loop stopped
// on cancellation.
func Pipeline[T, R any](ctx context.Context, n, workers, window int, prepare func(i int) (T, error), work func(i int, in T) (R, error), emit func(i int, r R) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if window < 1 {
		window = 1
	}
	if window > n {
		window = n
	}
	if workers <= 1 {
		if done := beginDispatch("Pipeline", n, 1); done != nil {
			defer done()
		}
		for i := 0; i < n; i++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := call(func(i int) error {
				in, err := prepare(i)
				if err != nil {
					return err
				}
				r, err := work(i, in)
				if err != nil {
					return err
				}
				return emit(i, r)
			}, i); err != nil {
				return err
			}
		}
		return nil
	}
	if done := beginDispatch("Pipeline", n, workers); done != nil {
		defer done()
	}

	slots := make([]pipeSlot[R], window)
	sem := make(chan struct{}, window)
	workCh := make(chan pipeItem[T])
	emitQ := make(chan int, window)
	var fe firstErr
	var cancelled atomic.Bool

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range workCh {
				s := &slots[it.i%window]
				s.err = call(func(i int) error {
					r, err := work(i, it.in)
					if err != nil {
						return err
					}
					s.res = r
					return nil
				}, it.i)
				close(s.done)
			}
		}()
	}

	// Single emitter: consumes indices in dispatch order, waits for each
	// slot's worker, and runs emit serially. It keeps draining after a
	// failure — releasing the window semaphore for every item — so the
	// dispatcher can never deadlock on a stopped pipeline.
	var ewg sync.WaitGroup
	ewg.Add(1)
	go func() {
		defer ewg.Done()
		for i := range emitQ {
			s := &slots[i%window]
			// An index reaches emitQ only after its item was handed to the
			// worker pool, and workers close the slot's done channel
			// unconditionally — panic paths included, via the call wrapper —
			// so this wait always terminates; emitQ itself is closed by the
			// dispatcher on every exit path.
			//lint:allow leakguard done is closed unconditionally by the worker that owns the slot, and emitQ is closed on every dispatcher path
			<-s.done
			err, res := s.err, s.res
			if err != nil {
				fe.record(i, err)
			} else if !fe.stop.Load() && !cancelled.Load() {
				if err := call(func(i int) error { return emit(i, res) }, i); err != nil {
					fe.record(i, err)
				}
			}
			// Item i leaves the window only once emitted (or dropped), so
			// the dispatcher cannot prepare item i+window before then.
			<-sem
		}
	}()

	for i := 0; i < n; i++ {
		if fe.stop.Load() {
			break
		}
		if ctx != nil && ctx.Err() != nil {
			cancelled.Store(true)
			break
		}
		sem <- struct{}{}
		s := &slots[i%window]
		*s = pipeSlot[R]{done: make(chan struct{})}
		var in T
		perr := call(func(i int) error {
			v, err := prepare(i)
			if err != nil {
				return err
			}
			in = v
			return nil
		}, i)
		if perr != nil {
			// The slot was never handed to a worker, so its semaphore
			// token is released here; the dispatcher stops and nothing
			// later can acquire it.
			<-sem
			fe.record(i, perr)
			break
		}
		emitQ <- i
		workCh <- pipeItem[T]{i: i, in: in}
	}
	close(workCh)
	wg.Wait()
	close(emitQ)
	ewg.Wait()

	if fe.err != nil {
		return fe.err
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}
