package cpsz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tspsz/internal/bitmap"
	"tspsz/internal/critical"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/streamerr"
)

// gyre2D builds a smooth 2D field with a handful of critical points.
func gyre2D(nx, ny int) *field.Field {
	f := field.New2D(nx, ny)
	lx := float64(nx-1) / 2
	ly := float64(ny-1) / 2
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		f.U[idx] = float32(-math.Sin(math.Pi*p[0]/lx) * math.Cos(math.Pi*p[1]/ly))
		f.V[idx] = float32(math.Cos(math.Pi*p[0]/lx) * math.Sin(math.Pi*p[1]/ly))
	}
	return f
}

// turb3D builds a small 3D field with critical points from a few Fourier
// modes.
func turb3D(n int) *field.Field {
	f := field.New3D(n, n, n)
	s := float64(n-1) / 2
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		x, y, z := math.Pi*p[0]/s, math.Pi*p[1]/s, math.Pi*p[2]/s
		f.U[idx] = float32(math.Sin(x)*math.Cos(y) + 0.3*math.Cos(2*z))
		f.V[idx] = float32(-math.Cos(x)*math.Sin(y) + 0.3*math.Sin(2*z))
		f.W[idx] = float32(math.Sin(z)*math.Cos(x) - 0.3*math.Sin(2*y))
	}
	return f
}

func sameCPs(t *testing.T, a, b []critical.Point) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("critical point count changed: %d -> %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Cell != b[i].Cell {
			t.Fatalf("cp %d moved from cell %d to %d", i, a[i].Cell, b[i].Cell)
		}
		if a[i].Type != b[i].Type {
			t.Fatalf("cp %d changed type %v -> %v", i, a[i].Type, b[i].Type)
		}
		if a[i].Pos != b[i].Pos {
			t.Fatalf("cp %d moved %v -> %v", i, a[i].Pos, b[i].Pos)
		}
	}
}

func roundTrip(t *testing.T, f *field.Field, opts Options) (*Result, *field.Field) {
	t.Helper()
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	dec, err := Decompress(res.Bytes, opts.Workers)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if dec.NumVertices() != f.NumVertices() || dec.Dim() != f.Dim() {
		t.Fatal("shape mismatch after round trip")
	}
	// The decoder must reproduce exactly what the encoder predicted.
	for c, comp := range dec.Components() {
		want := res.Decompressed.Components()[c]
		for i := range comp {
			if comp[i] != want[i] {
				t.Fatalf("component %d vertex %d: decoder %v != encoder %v", c, i, comp[i], want[i])
			}
		}
	}
	return res, dec
}

func TestRoundTripAbsolute2D(t *testing.T) {
	f := gyre2D(48, 40)
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 2}
	res, dec := roundTrip(t, f, opts)
	if len(res.Bytes) >= f.SizeBytes() {
		t.Errorf("no compression: %d >= %d", len(res.Bytes), f.SizeBytes())
	}
	// Absolute bound must hold everywhere.
	for c, comp := range dec.Components() {
		orig := f.Components()[c]
		for i := range comp {
			if d := math.Abs(float64(comp[i]) - float64(orig[i])); d > opts.ErrBound {
				t.Fatalf("component %d vertex %d: error %v exceeds bound %v", c, i, d, opts.ErrBound)
			}
		}
	}
}

func TestRoundTripRelative2D(t *testing.T) {
	f := gyre2D(48, 40)
	opts := Options{Mode: ebound.Relative, ErrBound: 0.01, Workers: 2}
	_, dec := roundTrip(t, f, opts)
	for c, comp := range dec.Components() {
		orig := f.Components()[c]
		for i := range comp {
			bound := opts.ErrBound * math.Abs(float64(orig[i]))
			if d := math.Abs(float64(comp[i]) - float64(orig[i])); d > bound+1e-12 {
				t.Fatalf("component %d vertex %d: error %v exceeds relative bound %v", c, i, d, bound)
			}
		}
	}
}

func TestRoundTripAbsolute3D(t *testing.T) {
	f := turb3D(20)
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.02, Workers: 3}
	_, dec := roundTrip(t, f, opts)
	for c, comp := range dec.Components() {
		orig := f.Components()[c]
		for i := range comp {
			if d := math.Abs(float64(comp[i]) - float64(orig[i])); d > opts.ErrBound {
				t.Fatalf("component %d vertex %d: error %v exceeds bound", c, i, d)
			}
		}
	}
}

func TestCriticalPointsPreservedExactly(t *testing.T) {
	cases := []struct {
		name string
		f    *field.Field
		mode ebound.Mode
		eb   float64
	}{
		{"2D-abs", gyre2D(40, 32), ebound.Absolute, 0.05},
		{"2D-rel", gyre2D(40, 32), ebound.Relative, 0.05},
		{"3D-abs", turb3D(16), ebound.Absolute, 0.05},
		{"3D-rel", turb3D(16), ebound.Relative, 0.05},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := critical.Extract(tc.f)
			if len(orig) == 0 {
				t.Fatal("setup: field has no critical points")
			}
			_, dec := roundTrip(t, tc.f, Options{Mode: tc.mode, ErrBound: tc.eb, Workers: 2})
			sameCPs(t, orig, critical.Extract(dec))
		})
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	f := turb3D(18)
	var ref []byte
	for _, workers := range []int{1, 2, 5, 16} {
		res, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Bytes
			continue
		}
		if !bytes.Equal(ref, res.Bytes) {
			t.Fatalf("output differs between workers=1 and workers=%d", workers)
		}
	}
}

func TestForcedLosslessVerticesExact(t *testing.T) {
	f := gyre2D(32, 32)
	marks := bitmap.New(f.NumVertices())
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200; n++ {
		marks.Set(rng.Intn(f.NumVertices()))
	}
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.1, Lossless: marks, Workers: 2}
	res, dec := roundTrip(t, f, opts)
	for i := 0; i < f.NumVertices(); i++ {
		if !marks.Get(i) {
			continue
		}
		if dec.U[i] != f.U[i] || dec.V[i] != f.V[i] {
			t.Fatalf("forced-lossless vertex %d not exact", i)
		}
		if !res.LosslessVertices.Get(i) {
			t.Fatalf("forced vertex %d missing from lossless bitmap", i)
		}
	}
}

func TestCPCellsLossless(t *testing.T) {
	f := gyre2D(32, 32)
	res, dec := roundTrip(t, f, Options{Mode: ebound.Absolute, ErrBound: 0.1, Workers: 1})
	for _, cp := range critical.Extract(f) {
		for _, vi := range f.Grid.CellVertices(cp.Cell, nil) {
			if dec.U[vi] != f.U[vi] || dec.V[vi] != f.V[vi] {
				t.Fatalf("vertex %d of cp cell %d not lossless", vi, cp.Cell)
			}
			if !res.LosslessVertices.Get(vi) {
				t.Fatalf("cp-cell vertex %d not marked lossless", vi)
			}
		}
	}
}

func TestHigherBoundCompressesBetter(t *testing.T) {
	f := gyre2D(64, 64)
	sizes := make([]int, 0, 3)
	for _, eb := range []float64{1e-4, 1e-3, 1e-2} {
		res, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: eb, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(res.Bytes))
	}
	if !(sizes[0] > sizes[1] && sizes[1] > sizes[2]) {
		t.Errorf("sizes not monotone in bound: %v", sizes)
	}
}

func TestRejectsBadInput(t *testing.T) {
	f := gyre2D(8, 8)
	if _, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: 0}); err == nil {
		t.Error("zero bound accepted")
	}
	if _, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: -1}); err == nil {
		t.Error("negative bound accepted")
	}
	if _, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: 1, Lossless: bitmap.New(3)}); err == nil {
		t.Error("mismatched bitmap accepted")
	}
	// An unknown mode or predictor must be named, never written into a
	// header byte the decoder would misread.
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Mode: ebound.Mode(7), ErrBound: 1}, "unknown error mode 7"},
		{Options{Mode: ebound.Mode(-1), ErrBound: 1}, "unknown error mode -1"},
		{Options{Mode: ebound.Absolute, ErrBound: 1, Predictor: Predictor(7)}, "unknown predictor 7"},
	} {
		if _, err := Compress(f, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: got %v, want an error naming %q", tc.opts, err, tc.want)
		}
	}
}

// TestRejectsResealedUnknownMode: a header whose mode byte names no error
// mode, with its header CRC and the stream trailer resealed so every
// checksum passes, is a header error for decode, the checksum scan and
// salvage alike — it is never decoded as relative mode.
func TestRejectsResealedUnknownMode(t *testing.T) {
	res, err := Compress(gyre2D(16, 12), Options{Mode: ebound.Relative, ErrBound: 0.05, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []byte{2, 7, 255} {
		bad := append([]byte{}, res.Bytes...)
		bad[6] = mode
		binary.LittleEndian.PutUint32(bad[headerBytes:], crc32.Checksum(bad[:headerBytes], crcTable))
		bad = resealTrailer(bad)
		if _, err := Decompress(bad, 1); !errors.Is(err, streamerr.ErrHeader) {
			t.Errorf("mode byte %d: Decompress got %v, want ErrHeader", mode, err)
		}
		if fails := VerifyAll(bad); len(fails) != 1 || !errors.Is(fails[0], streamerr.ErrHeader) {
			t.Errorf("mode byte %d: VerifyAll got %v, want one ErrHeader", mode, fails)
		}
		if _, _, err := Salvage(bad, 1); !errors.Is(err, streamerr.ErrHeader) {
			t.Errorf("mode byte %d: Salvage got %v, want ErrHeader", mode, err)
		}
	}
}

func TestDecompressRejectsCorruption(t *testing.T) {
	f := gyre2D(16, 16)
	res, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil, 1); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := Decompress([]byte("XXXX"), 1); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decompress(res.Bytes[:20], 1); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Decompress(res.Bytes[:len(res.Bytes)/2], 1); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestCompressDoesNotMutateInput(t *testing.T) {
	f := gyre2D(24, 24)
	u := append([]float32(nil), f.U...)
	v := append([]float32(nil), f.V...)
	if _, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: 0.05, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	for i := range u {
		if f.U[i] != u[i] || f.V[i] != v[i] {
			t.Fatal("Compress mutated its input")
		}
	}
}

func TestAbsSymbolRoundTrip(t *testing.T) {
	userEB := 0.01
	for _, target := range []float64{0.01, 0.009, 0.005, 1e-4, 1e-8, math.Inf(1)} {
		sym, realized := absSymbol(userEB, target)
		if sym == absLosslessSym {
			if target > userEB/math.Pow(2, absExpCap) {
				t.Errorf("target %v needlessly lossless", target)
			}
			continue
		}
		if realized > target {
			t.Errorf("realized %v exceeds target %v", realized, target)
		}
		back, lossless := absBoundOf(userEB, sym)
		if lossless || back != realized {
			t.Errorf("absBoundOf(%d) = %v, want %v", sym, back, realized)
		}
	}
	if sym, _ := absSymbol(userEB, 0); sym != absLosslessSym {
		t.Error("zero target must be lossless")
	}
}

func TestRelSymbolRoundTrip(t *testing.T) {
	for _, target := range []float64{1, 0.5, 0.3, 1e-10, 1e-40} {
		sym, realized := relSymbol(target)
		if sym == relExactSym {
			t.Fatalf("target %v unexpectedly exact", target)
		}
		if realized > target || realized < target/2 {
			t.Errorf("realized %v not in (target/2, target] for %v", realized, target)
		}
		back, exact := relBoundOf(sym)
		if exact || back != realized {
			t.Errorf("relBoundOf(%d) = %v, want %v", sym, back, realized)
		}
	}
	if sym, _ := relSymbol(0); sym != relExactSym {
		t.Error("zero target must be exact")
	}
	if sym, _ := relSymbol(math.Inf(1)); sym == relExactSym {
		t.Error("infinite target must not be exact")
	}
}

func TestPartitionInvariants(t *testing.T) {
	for _, dims := range [][3]int{{16, 16, 1}, {100, 50, 1}, {10, 10, 10}, {8, 8, 64}, {4, 4, 4}} {
		var f *field.Field
		if dims[2] == 1 {
			f = field.New2D(dims[0], dims[1])
		} else {
			f = field.New3D(dims[0], dims[1], dims[2])
		}
		interiors, boundaries := partition(f.Grid)
		covered := 0
		for _, r := range interiors {
			covered += r.numVertices()
		}
		for _, r := range boundaries {
			covered += r.numVertices()
		}
		if covered != f.NumVertices() {
			t.Fatalf("dims %v: partition covers %d of %d vertices", dims, covered, f.NumVertices())
		}
		// Boundary planes must be pairwise non-adjacent (≥ 2 apart).
		axis := partitionAxis(f.Grid)
		prev := -10
		for _, b := range boundaries {
			if b.lo[axis]-prev < 2 {
				t.Fatalf("dims %v: boundary planes too close: %d then %d", dims, prev, b.lo[axis])
			}
			prev = b.lo[axis]
		}
	}
}

func BenchmarkCompressAbs2D(b *testing.B) {
	f := gyre2D(128, 128)
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 0}
	b.SetBytes(int64(f.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressAbs2D(b *testing.B) {
	f := gyre2D(128, 128)
	res, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 0})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(f.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(res.Bytes, 0); err != nil {
			b.Fatal(err)
		}
	}
}
