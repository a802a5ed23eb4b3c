package cpsz

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tspsz/internal/datagen"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/obs"
	"tspsz/internal/streamerr"
)

// turbBox is turb3D over a non-cubic box, tall in z so the streaming path
// exercises many slabs and cut planes.
func turbBox(nx, ny, nz int) *field.Field {
	f := field.New3D(nx, ny, nz)
	s := float64(nx-1) / 2
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		x, y, z := math.Pi*p[0]/s, math.Pi*p[1]/s, math.Pi*p[2]/s
		f.U[idx] = float32(math.Sin(x)*math.Cos(y) + 0.3*math.Cos(2*z))
		f.V[idx] = float32(-math.Cos(x)*math.Sin(y) + 0.3*math.Sin(2*z))
		f.W[idx] = float32(math.Sin(z)*math.Cos(x) - 0.3*math.Sin(2*y))
	}
	return f
}

// sweepCheck holds a fetcher to the one-sweep contract: k never decreases
// from one request to the next, and no layer is requested more than limit
// times.
func sweepCheck(what string, limit int) func(k int) error {
	prev := 0
	counts := make(map[int]int)
	return func(k int) error {
		if k < prev {
			return fmt.Errorf("%s %d requested after %d: the sweep went back", what, k, prev)
		}
		prev = k
		if counts[k]++; counts[k] > limit {
			return fmt.Errorf("%s %d requested %d times, want at most %d", what, k, counts[k], limit)
		}
		return nil
	}
}

// guardLayers wraps fetch in a sweepCheck. A layer may be fetched twice,
// since a cut plane serves the slabs on both of its sides.
func guardLayers(fetch field.LayerFetcher) field.LayerFetcher {
	check := sweepCheck("layer", 2)
	return field.LayerFetcherFunc(func(k int) ([][]float32, error) {
		if err := check(k); err != nil {
			return nil, err
		}
		return fetch.Layer(k)
	})
}

// guardBounds wraps eb in a sweepCheck that allows one fetch per layer.
func guardBounds(eb field.EbFetcher) field.EbFetcher {
	check := sweepCheck("bound layer", 1)
	return field.EbFetcherFunc(func(k int) ([]float64, error) {
		if err := check(k); err != nil {
			return nil, err
		}
		return eb.LayerBounds(k)
	})
}

// TestStreamMatchesInMemory is the core acceptance differential: the
// streaming writer must produce archives byte-identical to Compress for
// the same field — with critical points, in both error modes, with and
// without Plain — at every worker count.
func TestStreamMatchesInMemory(t *testing.T) {
	f := turbBox(16, 14, 96)
	cases := []struct {
		name string
		opts Options
	}{
		{"abs", Options{Mode: ebound.Absolute, ErrBound: 0.01}},
		{"rel", Options{Mode: ebound.Relative, ErrBound: 0.05}},
		{"plain-abs", Options{Mode: ebound.Absolute, ErrBound: 0.01, Plain: true}},
	}
	for _, tc := range cases {
		ref, err := Compress(f, tc.opts)
		if err != nil {
			t.Fatalf("%s: in-memory: %v", tc.name, err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			opts := tc.opts
			opts.Workers = workers
			var buf bytes.Buffer
			n, err := CompressStream(nil, &buf, 16, 14, 96, guardLayers(field.Layers(f)), nil, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("%s workers=%d: reported %d bytes, wrote %d", tc.name, workers, n, buf.Len())
			}
			if !bytes.Equal(buf.Bytes(), ref.Bytes) {
				t.Fatalf("%s workers=%d: streaming archive differs from in-memory (%d vs %d bytes)",
					tc.name, workers, buf.Len(), len(ref.Bytes))
			}
		}
	}
}

// TestStreamDecodes proves a streamed archive round-trips through the
// standard decoder within the bound.
func TestStreamDecodes(t *testing.T) {
	f := turbBox(12, 12, 40)
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 4}
	var buf bytes.Buffer
	if _, err := CompressStream(nil, &buf, 12, 12, 40, field.Layers(f), nil, opts); err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(buf.Bytes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	refComps := ref.Decompressed.Components()
	for c, vals := range dec.Components() {
		for i := range vals {
			if vals[i] != refComps[c][i] {
				t.Fatalf("component %d vertex %d: streamed decode %v, in-memory recon %v", c, i, vals[i], refComps[c][i])
			}
		}
	}
}

// TestStreamEbFetcher pins the EbFetcher contract: fetched bounds replace
// the topology-derived ones (still capped by the user bound), and a
// negative bound forces the vertex lossless (bit-exact on decode).
func TestStreamEbFetcher(t *testing.T) {
	nx, ny, nz := 10, 10, 32
	f := turbBox(nx, ny, nz)
	plane := nx * ny
	forced := func(k, rem int) bool { return k == 7 && rem < 25 }
	eb := field.EbFetcherFunc(func(k int) ([]float64, error) {
		b := make([]float64, plane)
		for i := range b {
			if forced(k, i) {
				b[i] = -1
			} else {
				b[i] = 0.02
			}
		}
		return b, nil
	})
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 3}
	var buf bytes.Buffer
	if _, err := CompressStream(nil, &buf, nx, ny, nz, guardLayers(field.Layers(f)), guardBounds(eb), opts); err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(buf.Bytes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	comps, decComps := f.Components(), dec.Components()
	for idx := 0; idx < f.NumVertices(); idx++ {
		k, rem := idx/plane, idx%plane
		for c := range comps {
			got, want := decComps[c][idx], comps[c][idx]
			if forced(k, rem) {
				if got != want {
					t.Fatalf("forced-lossless vertex %d comp %d: %v != %v", idx, c, got, want)
				}
			} else if math.Abs(float64(got)-float64(want)) > 0.01+1e-12 {
				t.Fatalf("vertex %d comp %d: error %v exceeds bound", idx, c,
					math.Abs(float64(got)-float64(want)))
			}
		}
	}

	// Bounds at the user bound everywhere must reproduce the Plain stream
	// exactly: min(user, fetched) == user == the Plain derived bound.
	wide := field.EbFetcherFunc(func(k int) ([]float64, error) {
		b := make([]float64, plane)
		for i := range b {
			b[i] = math.Inf(1)
		}
		return b, nil
	})
	var wideBuf bytes.Buffer
	if _, err := CompressStream(nil, &wideBuf, nx, ny, nz, guardLayers(field.Layers(f)), guardBounds(wide), opts); err != nil {
		t.Fatal(err)
	}
	plainOpts := opts
	plainOpts.Plain = true
	ref, err := Compress(f, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wideBuf.Bytes(), ref.Bytes) {
		t.Fatal("infinite fetched bounds do not reproduce the Plain stream")
	}
}

// TestStreamSpillBounded bounds the spill the sweep keeps for the chunk
// encoders: on real data it stays close to the archive, and on data the
// archive codes below one bit per symbol it stays near that one-bit floor.
// The fields cover both error modes, a Nek5000 field and Gaussian noise,
// whose critical point in nearly every cell makes the raw bytes dominate.
func TestStreamSpillBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	noise := field.New3D(20, 20, 24)
	for _, comp := range noise.Components() {
		for i := range comp {
			comp[i] = float32(rng.NormFloat64())
		}
	}
	hurricane := datagen.Hurricane(32, 32, 24)
	cases := []struct {
		name string
		f    *field.Field
		opts Options
	}{
		{"hurricane-abs", hurricane, Options{Mode: ebound.Absolute, ErrBound: 5e-3}},
		{"hurricane-rel", hurricane, Options{Mode: ebound.Relative, ErrBound: 5e-2}},
		{"nek5000", datagen.Nek5000(20), Options{Mode: ebound.Absolute, ErrBound: 1e-2}},
		{"noise", noise, Options{Mode: ebound.Absolute, ErrBound: 1e-2}},
	}
	for _, tc := range cases {
		c := obs.New()
		tc.opts.Collector = c
		tc.opts.Workers = 2
		nx, ny, nz := tc.f.Grid.Dims()
		var buf bytes.Buffer
		archive, err := CompressStream(nil, &buf, nx, ny, nz, field.Layers(tc.f), nil, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := c.Snapshot()
		spill := s.Counters[obs.CtrBytesStreamSpill.String()]
		var symbols int64
		for _, sp := range s.Spans {
			if sp.Stage == obs.StageEntropyEncode.String() {
				symbols += sp.Items
			}
		}
		interiors, boundaries := partition(tc.f.Grid)
		regions := int64(len(interiors) + len(boundaries))
		limit := 1.25*float64(archive) + float64(symbols)/8 + 1024*float64(regions)
		if spill <= 0 || float64(spill) > limit {
			t.Errorf("%s: spill %d bytes, want in (0, %.0f] (archive %d bytes, %d symbols, %d regions)",
				tc.name, spill, limit, archive, symbols, regions)
		}
		t.Logf("%s: spill %d bytes = %.2f× the %d-byte archive (%d symbols, %d regions)",
			tc.name, spill, float64(spill)/float64(archive), archive, symbols, regions)
	}
}

// TestStreamRejectsUnsupported pins the validation surface: unsupported
// options fail fast with clear errors, implausible dims and malformed
// fetcher output are typed header errors.
func TestStreamRejectsUnsupported(t *testing.T) {
	f := turbBox(8, 8, 16)
	ok := Options{Mode: ebound.Absolute, ErrBound: 0.01}
	var buf bytes.Buffer

	bad := []Options{
		{Mode: ebound.Absolute, ErrBound: 0.01, SoS: true},
		{Mode: ebound.Absolute, ErrBound: 0.01, Predictor: PredictorInterpolation},
		{Mode: ebound.Absolute, ErrBound: 0.01, Reference: f},
		{Mode: ebound.Absolute},
	}
	for i, opts := range bad {
		if _, err := CompressStream(nil, &buf, 8, 8, 16, field.Layers(f), nil, opts); err == nil {
			t.Fatalf("bad option set %d accepted", i)
		}
	}
	// Unknown modes and predictors are named by the validator both entry
	// points share, not reported as unsupported features.
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Mode: ebound.Mode(7), ErrBound: 0.01}, "unknown error mode 7"},
		{Options{Mode: ebound.Mode(-1), ErrBound: 0.01}, "unknown error mode -1"},
		{Options{Mode: ebound.Absolute, ErrBound: 0.01, Predictor: Predictor(7)}, "unknown predictor 7"},
	} {
		if _, err := CompressStream(nil, &buf, 8, 8, 16, field.Layers(f), nil, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: got %v, want an error naming %q", tc.opts, err, tc.want)
		}
	}
	if _, err := CompressStream(nil, &buf, 8, 8, 1, field.Layers(f), nil, ok); !errors.Is(err, streamerr.ErrHeader) {
		t.Fatalf("nz=1 accepted or mistyped: %v", err)
	}
	if _, err := CompressStream(nil, &buf, 1<<30, 8, 16, field.Layers(f), nil, ok); !errors.Is(err, streamerr.ErrHeader) {
		t.Fatalf("oversized axis accepted or mistyped: %v", err)
	}

	// Fetcher output disagreeing with the declared dims: wrong component
	// count and wrong plane extent must both be typed header errors.
	short := field.LayerFetcherFunc(func(k int) ([][]float32, error) {
		return [][]float32{make([]float32, 64), make([]float32, 64)}, nil
	})
	if _, err := CompressStream(nil, &buf, 8, 8, 16, short, nil, ok); !errors.Is(err, streamerr.ErrHeader) {
		t.Fatalf("2-component fetcher: %v", err)
	}
	shear := field.LayerFetcherFunc(func(k int) ([][]float32, error) {
		p := make([]float32, 63)
		return [][]float32{p, p, p}, nil
	})
	if _, err := CompressStream(nil, &buf, 8, 8, 16, shear, nil, ok); !errors.Is(err, streamerr.ErrHeader) {
		t.Fatalf("wrong-extent fetcher: %v", err)
	}
	badEb := field.EbFetcherFunc(func(k int) ([]float64, error) {
		return make([]float64, 10), nil
	})
	if _, err := CompressStream(nil, &buf, 8, 8, 16, field.Layers(f), badEb, ok); !errors.Is(err, streamerr.ErrHeader) {
		t.Fatalf("wrong-extent eb fetcher: %v", err)
	}
}

// TestStreamCancellation proves a pre-cancelled context fails before any
// fetch and a mid-stream cancel comes back as ErrCancelled.
func TestStreamCancellation(t *testing.T) {
	f := turbBox(12, 12, 48)
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fetches := 0
	counting := field.LayerFetcherFunc(func(k int) ([][]float32, error) {
		fetches++
		return f.LayerView(k), nil
	})
	var buf bytes.Buffer
	if _, err := CompressStream(ctx, &buf, 12, 12, 48, counting, nil, opts); !errors.Is(err, streamerr.ErrCancelled) {
		t.Fatalf("pre-cancelled: %v", err)
	}
	if fetches != 0 {
		t.Fatalf("pre-cancelled context still fetched %d layers", fetches)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	n := 0
	tripwire := field.LayerFetcherFunc(func(k int) ([][]float32, error) {
		n++
		if n == 10 {
			cancel2()
		}
		return f.LayerView(k), nil
	})
	defer cancel2()
	if _, err := CompressStream(ctx2, &buf, 12, 12, 48, tripwire, nil, opts); !errors.Is(err, streamerr.ErrCancelled) {
		t.Fatalf("mid-stream cancel: %v", err)
	}
}

// TestStreamFetchError proves a fetcher failure aborts the stream with the
// fetcher's error and no partial trailer.
func TestStreamFetchError(t *testing.T) {
	f := turbBox(10, 10, 32)
	boom := errors.New("disk gone")
	n := 0
	flaky := field.LayerFetcherFunc(func(k int) ([][]float32, error) {
		n++
		if n == 12 {
			return nil, boom
		}
		return f.LayerView(k), nil
	})
	var buf bytes.Buffer
	_, err := CompressStream(nil, &buf, 10, 10, 32, flaky, nil, Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the fetcher error", err)
	}
}
