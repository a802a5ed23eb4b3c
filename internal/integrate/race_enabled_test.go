//go:build race

package integrate

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random share of what is put back, so allocation counts
// of pooled paths are not reproducible.
const raceEnabled = true
