package parallel

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered from a loop body run by For, Wavefront or
// Pipeline.
// A panic inside a plain goroutine kills the whole process — no recover in
// the caller can cross the goroutine boundary — so the dispatchers catch
// it at the goroutine root and hand it back as an error carrying the panic
// value and the worker's stack at the point of failure.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("worker panic: %v\n%s", e.Value, e.Stack)
}

// PanicValue returns the recovered value; it also marks the type for
// packages (streamerr) that classify contained panics without importing
// this package.
func (e *PanicError) PanicValue() any { return e.Value }

// call runs fn(i) converting a panic into a *PanicError.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// firstErr tracks the failure with the smallest iteration index across
// workers, so the reported error is the earliest violation in stream
// order rather than whichever worker lost the scheduling race.
type firstErr struct {
	mu   sync.Mutex
	idx  int
	err  error
	stop atomic.Bool
}

func (f *firstErr) record(i int, err error) {
	f.mu.Lock()
	if f.err == nil || i < f.idx {
		f.idx, f.err = i, err
	}
	f.mu.Unlock()
	f.stop.Store(true)
}
