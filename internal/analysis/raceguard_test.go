package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureParallel is a serial stand-in for internal/parallel with the
// same exported loop surface, so raceguard fixtures type-check without
// importing the real module.
const fixtureParallel = `package parallel

import "context"

func Workers(n int) int { return 1 }

func For(ctx context.Context, n, workers, grain int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

func Wavefront(ctx context.Context, nx, ny, workers int, fn func(i, j int) error) error {
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if err := fn(i, j); err != nil {
				return err
			}
		}
	}
	return nil
}

func Ranges(n, workers int) [][2]int {
	return [][2]int{{0, n}}
}
`

// TestRaceguardSharedWrites seeds the shared-write race class: every
// write in this fixture targets captured state with no disjointness
// witness and must be flagged.
func TestRaceguardSharedWrites(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/parallel/parallel.go": fixtureParallel,
		"internal/kern/race.go": `package kern

import (
	"context"
	"errors"

	"fixture/internal/parallel"
)

func SumRace(ctx context.Context, xs []float64) (float64, error) {
	var total float64
	err := parallel.For(ctx, len(xs), 4, 1, func(i int) error {
		total += xs[i]
		return nil
	})
	return total, err
}

func HistRace(vals []int) map[int]int {
	h := map[int]int{}
	rs := parallel.Ranges(len(vals), 4)
	_ = parallel.For(nil, len(rs), 4, 1, func(i int) error {
		for j := rs[i][0]; j < rs[i][1]; j++ {
			h[vals[j]]++
		}
		return nil
	})
	return h
}

func CollectRace(n int) []int {
	var out []int
	_ = parallel.For(nil, n, 4, 1, func(i int) error {
		out = append(out, i)
		return nil
	})
	return out
}

func ErrRace(items []string) error {
	var err error
	_ = parallel.For(nil, len(items), 4, 1, func(i int) error {
		if items[i] == "" {
			err = errors.New("empty item")
		}
		return nil
	})
	return err
}

func SlotRace(out []int, k int) {
	_ = parallel.For(nil, len(out), 4, 1, func(i int) error {
		out[k] = i
		return nil
	})
}

type stats struct {
	peak int
}

func FieldRace(xs []int, st *stats) {
	_ = parallel.For(nil, len(xs), 4, 1, func(i int) error {
		st.peak = xs[i]
		return nil
	})
}

func PtrRace(xs []float64, sum *float64) {
	_ = parallel.For(nil, len(xs), 4, 1, func(i int) error {
		*sum = *sum + xs[i]
		return nil
	})
}

func CountRace(ctx context.Context, xs []int) (int, error) {
	n := 0
	err := parallel.For(ctx, len(xs), 4, 1, func(i int) error {
		if xs[i] > 0 {
			n++
		}
		return nil
	})
	return n, err
}
`,
	})
	expectLines(t, runCheck(t, dir, "raceguard"),
		"internal/kern/race.go:13",
		"internal/kern/race.go:24",
		"internal/kern/race.go:34",
		"internal/kern/race.go:44",
		"internal/kern/race.go:53",
		"internal/kern/race.go:64",
		"internal/kern/race.go:71",
		"internal/kern/race.go:80",
	)
}

// TestRaceguardRealDispatcher runs raceguard against the real
// internal/parallel sources instead of the stand-in, so the check cannot
// drift from the dispatcher that production code calls: a captured
// counter bumped inside a ctx-taking parallel.For worker is flagged.
func TestRaceguardRealDispatcher(t *testing.T) {
	files := map[string]string{
		"internal/kern/count.go": `package kern

import (
	"context"

	"fixture/internal/parallel"
)

func CountPositive(ctx context.Context, xs []int) (int, error) {
	n := 0
	err := parallel.For(ctx, len(xs), 4, 1, func(i int) error {
		if xs[i] > 0 {
			n++
		}
		return nil
	})
	return n, err
}
`,
	}
	const real = "../parallel"
	ents, err := os.ReadDir(real)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(real, name))
		if err != nil {
			t.Fatal(err)
		}
		files["internal/parallel/"+name] = string(src)
	}
	expectLines(t, runCheck(t, writeModule(t, files), "raceguard"), "internal/kern/count.go:13")
}

// TestRaceguardDisjointWrites is the false-positive suite: every worker
// write here is provably disjoint (derived index, private view, Ranges
// extents, worker-private buffer) or goes through a method call, and the
// check must stay silent.
func TestRaceguardDisjointWrites(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/parallel/parallel.go": fixtureParallel,
		"internal/kern/clean.go": `package kern

import (
	"context"
	"sync/atomic"

	"fixture/internal/parallel"
)

func Fill(out []float64) {
	_ = parallel.For(nil, len(out), 4, 1, func(i int) error {
		out[i] = float64(i) * 0.5
		return nil
	})
}

func Scale(ctx context.Context, out, src []float64) error {
	rs := parallel.Ranges(len(out), 4)
	return parallel.For(ctx, len(rs), 4, 1, func(i int) error {
		lo, hi := rs[i][0], rs[i][1]
		sub := out[lo:hi]
		for k := range sub {
			sub[k] = src[lo+k] * 2
		}
		return nil
	})
}

func RangesIdiom(out []float64, n int) error {
	rs := parallel.Ranges(n, 4)
	return parallel.For(nil, len(rs), 4, 1, func(i int) error {
		lo, hi := rs[i][0], rs[i][1]
		for j := lo; j < hi; j++ {
			out[j] = float64(j)
		}
		return nil
	})
}

func PrivateBuffer(out []float64) error {
	rs := parallel.Ranges(len(out), 4)
	return parallel.For(nil, len(rs), 4, 1, func(i int) error {
		lo, hi := rs[i][0], rs[i][1]
		buf := make([]float64, hi-lo)
		for k := range buf {
			buf[k] = float64(lo + k)
		}
		copy(out[lo:hi], buf)
		return nil
	})
}

func AtomicCount(ctx context.Context, xs []int) (int64, error) {
	var n atomic.Int64
	err := parallel.For(ctx, len(xs), 4, 1, func(i int) error {
		if xs[i] > 0 {
			n.Add(1)
		}
		return nil
	})
	return n.Load(), err
}

type collector struct {
	n atomic.Int64
}

func (c *collector) Observe(v int64) { c.n.Add(v) }

func CollectorCalls(xs []int, c *collector) {
	_ = parallel.For(nil, len(xs), 4, 1, func(i int) error {
		c.Observe(int64(xs[i]))
		return nil
	})
}

func ReduceSum(xs []float64) (float64, error) {
	rs := parallel.Ranges(len(xs), 8)
	parts := make([]float64, len(rs))
	if err := parallel.For(nil, len(rs), 4, 1, func(i int) error {
		var s float64
		for j := rs[i][0]; j < rs[i][1]; j++ {
			s += xs[j]
		}
		parts[i] = s
		return nil
	}); err != nil {
		return 0, err
	}
	var total float64
	for _, p := range parts {
		total += p
	}
	return total, nil
}

func Rows(grid [][]float64) {
	_ = parallel.For(nil, len(grid), 4, 1, func(i int) error {
		row := grid[i]
		for k := range row {
			row[k] = float64(i + k)
		}
		return nil
	})
}
`,
	})
	expectLines(t, runCheck(t, dir, "raceguard"))
}

// TestRaceguardSuppression: a justified //lint:allow raceguard directive
// silences the finding, and the directive's name is accepted.
func TestRaceguardSuppression(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/parallel/parallel.go": fixtureParallel,
		"internal/kern/sup.go": `package kern

import "fixture/internal/parallel"

func LastWins(out []int, k int) {
	_ = parallel.For(nil, len(out), 4, 1, func(i int) error {
		out[k] = i //lint:allow raceguard benign last-writer-wins probe used only in tests
		return nil
	})
}
`,
	})
	expectLines(t, runCheck(t, dir, "raceguard"))
}

// TestRaceguardNestedDispatch: writes inside a nested dispatcher's worker
// are judged against the inner worker's parameters, not the outer one's.
func TestRaceguardNestedDispatch(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/parallel/parallel.go": fixtureParallel,
		"internal/kern/nest.go": `package kern

import "fixture/internal/parallel"

func Tile(grid [][]float64) error {
	return parallel.For(nil, len(grid), 4, 1, func(i int) error {
		row := grid[i]
		return parallel.For(nil, len(row), 2, 1, func(j int) error {
			row[j] = float64(i + j)
			return nil
		})
	})
}

func TileRace(grid [][]float64, k int) error {
	return parallel.For(nil, len(grid), 4, 1, func(i int) error {
		return parallel.For(nil, len(grid[i]), 2, 1, func(j int) error {
			grid[k][j] = float64(j)
			return nil
		})
	})
}
`,
	})
	// Tile is clean: row is private to the outer worker (grid[i], i
	// derived) and j is the inner worker's own parameter. TileRace's
	// inner write uses captured k for the row: flagged once, against
	// the inner closure.
	expectLines(t, runCheck(t, dir, "raceguard"), "internal/kern/nest.go:18")
}

// TestRaceguardWavefront: Wavefront's worker closures are checked like
// For's, with both cell coordinates derived, since cells that run at once
// differ in both. Tile writes indexed from i and j pass; a captured
// counter and a write indexed by a range key are flagged.
func TestRaceguardWavefront(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/parallel/parallel.go": fixtureParallel,
		"internal/kern/tiles.go": `package kern

import "fixture/internal/parallel"

func Tiles(out []float64, rows [][]int, nx, ny int) error {
	return parallel.Wavefront(nil, nx, ny, 2, func(i, j int) error {
		t := i + j*nx
		out[t] = float64(i * j)
		rows[j][i] = t
		col := out[i*ny : (i+1)*ny]
		col[j] = 1
		return nil
	})
}

func TilesCount(out []float64, nx, ny int) (int, error) {
	n := 0
	err := parallel.Wavefront(nil, nx, ny, 2, func(i, j int) error {
		n++
		return nil
	})
	return n, err
}

func TilesRangeKey(out []float64, nx, ny int) error {
	return parallel.Wavefront(nil, nx, ny, 2, func(i, j int) error {
		for k := range out {
			out[k] = float64(i + j)
		}
		return nil
	})
}
`,
	})
	expectLines(t, runCheck(t, dir, "raceguard"), "internal/kern/tiles.go:19", "internal/kern/tiles.go:28")
}
