package parallel

import "sync/atomic"

// HookFunc observes one loop dispatch: op names the dispatcher ("For",
// "Wavefront" or "Pipeline"), n is the iteration (or cell) count, and
// workers the goroutine count actually launched (after pool clamping; 1
// for the serial fast path). The returned func, if non-nil, is called
// when the dispatch completes.
// Implementations must be safe for concurrent calls from any goroutine.
type HookFunc func(op string, n, workers int) func()

// hook is the process-global dispatch observer. The default (nil) costs a
// single atomic load per dispatch; no allocations, clock reads, or atomics
// beyond that happen until a hook is installed.
var hook atomic.Pointer[HookFunc]

// SetHook installs h as the global dispatch observer (nil uninstalls).
// The hook is process-global and intended for profiling sessions — the
// CLI's -stats flag, tspbench, and make profile-smoke — where exactly one
// observed operation runs at a time. Installation is atomic, so dispatches
// racing with SetHook see either the old or the new hook, never a torn
// value.
func SetHook(h HookFunc) {
	if h == nil {
		hook.Store(nil)
		return
	}
	hook.Store(&h)
}

// beginDispatch notifies the installed hook, if any, and returns its
// completion callback (nil when no hook is installed or the hook declines).
func beginDispatch(op string, n, workers int) func() {
	if h := hook.Load(); h != nil {
		return (*h)(op, n, workers)
	}
	return nil
}
