package parallel

// The dispatcher tests in this package keep the names of the dispatchers
// For replaced: a ForErr or CtxForErr test pins its behaviour on For, and
// a ForChunks or ReduceRanges test pins it on For over Ranges with one
// result slot per range, the idiom that replaced them.

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForChunksCoversRange(t *testing.T) {
	f := func(nRaw uint8, wRaw uint8) bool {
		n := int(nRaw % 200)
		w := int(wRaw%8) + 1
		seen := make([]atomic.Int32, n)
		rs := Ranges(n, w)
		if err := For(nil, len(rs), w, 1, func(r int) error {
			for i := rs[r][0]; i < rs[r][1]; i++ {
				seen[i].Add(1)
			}
			return nil
		}); err != nil {
			return false
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestForCoversRangeOnce(t *testing.T) {
	f := func(nRaw uint16, wRaw, gRaw uint8) bool {
		n := int(nRaw % 5000)
		w := int(wRaw%8) + 1
		g := int(gRaw%64) + 1
		seen := make([]atomic.Int32, n)
		if err := For(nil, n, w, g, func(i int) error { seen[i].Add(1); return nil }); err != nil {
			return false
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Ranges is a gap-free, in-order partition of [0, n) into at most
// `workers` non-empty ranges.
func TestRangesMatchForChunks(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, w := range []int{1, 2, 3, 16} {
			rs := Ranges(n, w)
			if len(rs) > w {
				t.Fatalf("n=%d w=%d: %d ranges", n, w, len(rs))
			}
			covered := 0
			prev := 0
			for _, r := range rs {
				if r[0] != prev || r[1] <= r[0] {
					t.Fatalf("n=%d w=%d: gap or empty range at %v", n, w, r)
				}
				covered += r[1] - r[0]
				prev = r[1]
			}
			if covered != n {
				t.Fatalf("n=%d w=%d: covered %d", n, w, covered)
			}
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("Workers must return >= 1")
	}
	if Workers(5) != 5 {
		t.Error("Workers(5) != 5")
	}
}

func TestZeroN(t *testing.T) {
	called := false
	for _, w := range []int{1, 4} {
		if err := For(nil, 0, w, 8, func(i int) error { called = true; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if rs := Ranges(0, 4); len(rs) != 0 {
		t.Errorf("Ranges(0, 4) = %v, want none", rs)
	}
	if called {
		t.Error("callbacks invoked for n=0")
	}
}
