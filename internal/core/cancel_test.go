package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"tspsz/internal/bitmap"
	"tspsz/internal/critical"
	"tspsz/internal/ebound"
	"tspsz/internal/integrate"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
	"tspsz/internal/streamerr"
)

// A cancel that lands at the first parallel dispatch of a compress, the
// cp-extract cell partition, must stop the compress there: it returns
// ErrCancelled and no later stage opens a span. This holds for both
// variants and both critical-point predicates.
func TestCompressCancelledAtFirstDispatch(t *testing.T) {
	f := gyre2D(64, 48)
	for _, variant := range []Variant{TspSZ1, TspSZi} {
		for _, robust := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			parallel.SetHook(func(op string, n, workers int) func() {
				once.Do(cancel)
				return nil
			})
			c := obs.New()
			_, err := CompressCtx(ctx, f, Options{
				Variant: variant, Mode: ebound.Absolute, ErrBound: 1e-2,
				Params: testParams(), Workers: 2, RobustCP: robust, Collector: c,
			})
			parallel.SetHook(nil)
			cancel()
			if !errors.Is(err, streamerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("%v robust=%v: got %v, want ErrCancelled wrapping context.Canceled", variant, robust, err)
			}
			if got := c.Snapshot().Stages(); !reflect.DeepEqual(got, []string{obs.StageCPExtract.String()}) {
				t.Fatalf("%v robust=%v: recorded stages %v, want only cp-extract", variant, robust, got)
			}
		}
	}
}

// The force-exact fallback dispatches under the compress ctx: a dead ctx
// stops it before it patches anything.
func TestForceExactHonoursCtx(t *testing.T) {
	f := gyre2D(32, 32)
	dec := f.Clone()
	cps := critical.Extract(f)
	saddles := saddleIndices(cps)
	if len(saddles) == 0 {
		t.Fatal("setup: field has no saddles")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	log := &patchLog{patched: bitmap.New(f.NumVertices())}
	o := (&Options{Params: testParams(), Workers: 2}).withDefaults()
	loc := integrate.NewCPLocator(cps)
	if err := forceExact(ctx, f, dec, cps, loc, saddles, o, log); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := log.patched.Count(); n != 0 {
		t.Fatalf("cancelled fallback patched %d vertices", n)
	}
}
