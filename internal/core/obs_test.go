package core

import (
	"bytes"
	"testing"

	"tspsz/internal/field"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
)

// TestObservedArchivesByteIdentical pins the non-perturbation contract of
// internal/obs: attaching a Collector (including the parallel dispatch
// hook) must never change a single archive byte, at any worker count, for
// either variant. Run under -race this also exercises the collector's
// concurrency safety across the full pipeline.
func TestObservedArchivesByteIdentical(t *testing.T) {
	f := gyre2D(48, 48)
	for _, variant := range []Variant{TspSZ1, TspSZi} {
		baseOpts := Options{
			Variant: variant, ErrBound: 1e-2, Params: testParams(), Workers: 1,
		}
		base, err := Compress(f, baseOpts)
		if err != nil {
			t.Fatalf("%v baseline: %v", variant, err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			opts := baseOpts
			opts.Workers = workers
			opts.Collector = obs.New()
			parallel.SetHook(opts.Collector.Dispatch)
			res, err := Compress(f, opts)
			parallel.SetHook(nil)
			if err != nil {
				t.Fatalf("%v workers=%d observed: %v", variant, workers, err)
			}
			if !bytes.Equal(res.Bytes, base.Bytes) {
				t.Fatalf("%v workers=%d: observed archive differs from uninstrumented baseline (%d vs %d bytes)",
					variant, workers, len(res.Bytes), len(base.Bytes))
			}
			if res.Stats.Obs == nil {
				t.Fatalf("%v workers=%d: Stats.Obs not populated", variant, workers)
			}
			// And the decode path: observed decompression must reproduce
			// the same field as the unobserved one.
			plain, err := Decompress(base.Bytes, workers)
			if err != nil {
				t.Fatalf("%v workers=%d decompress: %v", variant, workers, err)
			}
			dc := obs.New()
			observed, err := DecompressObserved(base.Bytes, workers, dc)
			if err != nil {
				t.Fatalf("%v workers=%d observed decompress: %v", variant, workers, err)
			}
			for ci, comp := range plain.Components() {
				oc := observed.Components()[ci]
				for i := range comp {
					if comp[i] != oc[i] { //lint:allow floatcmp byte-identical reconstruction is the contract under test
						t.Fatalf("%v workers=%d: observed reconstruction differs at comp %d index %d", variant, workers, ci, i)
					}
				}
			}
		}
	}
}

// TestObservedStageCoverage asserts the acceptance criterion of the stats
// surface: a compression snapshot names every pipeline stage that ran and
// its byte-partition counters sum exactly to the archive size.
func TestObservedStageCoverage(t *testing.T) {
	f := gyre2D(48, 48)
	for _, tc := range []struct {
		variant Variant
		stages  []string
	}{
		{TspSZ1, []string{"cp-extract", "trace", "predict-quantize", "histogram", "entropy-encode", "container"}},
		{TspSZi, []string{"cp-extract", "trace", "predict-quantize", "histogram", "entropy-encode", "correction", "container"}},
	} {
		c := obs.New()
		res, err := Compress(f, Options{
			Variant: tc.variant, ErrBound: 1e-2, Params: testParams(), Workers: 4, Collector: c,
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.variant, err)
		}
		snap := res.Stats.Obs
		if snap == nil {
			t.Fatalf("%v: no snapshot", tc.variant)
		}
		for _, stage := range tc.stages {
			if !snap.HasStage(stage) {
				t.Errorf("%v: snapshot missing stage %q (has %v)", tc.variant, stage, snap.Stages())
			}
		}
		if got, want := snap.SectionSum(), int64(len(res.Bytes)); got != want {
			t.Errorf("%v: byte partition sums to %d, archive is %d bytes", tc.variant, got, want)
		}
		if got, want := snap.Counters["bytes_out"], int64(len(res.Bytes)); got != want {
			t.Errorf("%v: bytes_out %d, archive is %d bytes", tc.variant, got, want)
		}
		if got, want := snap.Counters["bytes_in"], int64(f.SizeBytes()); got != want {
			t.Errorf("%v: bytes_in %d, input is %d bytes", tc.variant, got, want)
		}
		if tc.variant == TspSZi {
			if got, want := snap.Counters["patched_vertices"], int64(res.Stats.PatchedVertices); got != want {
				t.Errorf("patched_vertices counter %d, stats say %d", got, want)
			}
			// The correction span opens with the first check of every
			// separatrix, so its items count all of them.
			for _, sp := range snap.Spans {
				if sp.Stage == "correction" && sp.Items != int64(res.Stats.NumSeps) {
					t.Errorf("correction span items %d, want %d separatrices", sp.Items, res.Stats.NumSeps)
				}
			}
		}
	}
}

// Sequence archives keep the partition invariant too: frame spans wrap the
// per-frame pipelines and the TSPQ framing lands in bytes_container.
func TestObservedSequencePartition(t *testing.T) {
	frames := []*field.Field{gyre2D(32, 32), gyre2D(32, 32), gyre2D(32, 32)}
	c := obs.New()
	res, err := CompressSequence(frames, Options{
		Variant: TspSZ1, ErrBound: 1e-2, Params: testParams(), Workers: 2, Collector: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("SeqResult.Obs not populated")
	}
	if !res.Obs.HasStage("frame") {
		t.Fatalf("sequence snapshot missing frame spans (has %v)", res.Obs.Stages())
	}
	if got, want := res.Obs.SectionSum(), int64(len(res.Bytes)); got != want {
		t.Fatalf("sequence byte partition sums to %d, archive is %d bytes", got, want)
	}
	// Decode side: observed sequence decode reproduces the plain one.
	plain, err := DecompressSequence(res.Bytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := DecompressSequenceObserved(res.Bytes, 2, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(observed) {
		t.Fatalf("frame count %d vs %d", len(plain), len(observed))
	}
}
