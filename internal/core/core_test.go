package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tspsz/internal/critical"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/integrate"
	"tspsz/internal/obs"
	"tspsz/internal/skeleton"
)

// gyre2D: smooth multi-gyre field with saddles and centers-turned-spirals.
func gyre2D(nx, ny int) *field.Field {
	f := field.New2D(nx, ny)
	lx := float64(nx-1) / 2
	ly := float64(ny-1) / 2
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		x, y := math.Pi*p[0]/lx, math.Pi*p[1]/ly
		// Slight damping makes centers into spiral sinks/sources so
		// separatrices have real absorbers.
		f.U[idx] = float32(-math.Sin(x)*math.Cos(y) - 0.12*math.Cos(x)*math.Sin(y))
		f.V[idx] = float32(math.Cos(x)*math.Sin(y) - 0.12*math.Sin(x)*math.Cos(y))
	}
	return f
}

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

func testParams() integrate.Params {
	return integrate.Params{EpsP: 1e-2, MaxSteps: 300, H: 0.05}
}

func checkSkeletonPreserved(t *testing.T, f, dec *field.Field, par integrate.Params, tau float64, exact bool) {
	t.Helper()
	origCPs := critical.Extract(f)
	decCPs := critical.Extract(dec)
	if len(origCPs) != len(decCPs) {
		t.Fatalf("critical points changed: %d -> %d", len(origCPs), len(decCPs))
	}
	for i := range origCPs {
		if origCPs[i].Cell != decCPs[i].Cell || origCPs[i].Type != decCPs[i].Type || origCPs[i].Pos != decCPs[i].Pos {
			t.Fatalf("critical point %d not exactly preserved", i)
		}
	}
	orig := skeleton.ExtractWith(f, origCPs, par)
	got := skeleton.ExtractWith(dec, origCPs, par)
	st := skeleton.Compare(orig, got, tau)
	if st.Incorrect != 0 {
		t.Fatalf("%d incorrect separatrices (max Fréchet %v)", st.Incorrect, st.MaxF)
	}
	if exact && st.MaxF != 0 {
		t.Fatalf("TspSZ-I separatrices not exact: max Fréchet %v", st.MaxF)
	}
	if !exact && st.MaxF > tau {
		t.Fatalf("max Fréchet %v exceeds tau %v", st.MaxF, tau)
	}
}

func TestTspSZ1Exact2D(t *testing.T) {
	f := gyre2D(40, 36)
	opts := Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 0.05, Params: testParams(), Workers: 2}
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(res.Bytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec.U {
		if dec.U[i] != res.Decompressed.U[i] || dec.V[i] != res.Decompressed.V[i] {
			t.Fatal("decoder does not match encoder reconstruction")
		}
	}
	checkSkeletonPreserved(t, f, dec, opts.Params, math.Sqrt2, true)
	if res.Stats.NumSeps != 4*res.Stats.NumSaddles {
		t.Errorf("NumSeps %d != 4×%d saddles", res.Stats.NumSeps, res.Stats.NumSaddles)
	}
	if len(res.Bytes) >= f.SizeBytes() {
		t.Errorf("no compression achieved: %d vs %d", len(res.Bytes), f.SizeBytes())
	}
}

func TestTspSZ1Relative2D(t *testing.T) {
	f := gyre2D(36, 32)
	opts := Options{Variant: TspSZ1, Mode: ebound.Relative, ErrBound: 0.05, Params: testParams(), Workers: 2}
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(res.Bytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkSkeletonPreserved(t, f, dec, opts.Params, math.Sqrt2, true)
}

func TestTspSZi2D(t *testing.T) {
	f := gyre2D(40, 36)
	tau := 0.5
	opts := Options{Variant: TspSZi, Mode: ebound.Absolute, ErrBound: 0.05,
		Params: testParams(), Tau: tau, Workers: 2}
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(res.Bytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSkeletonPreserved(t, f, dec, opts.Params, tau, false)
	if res.Stats.InitiallyIncorrect > 0 && res.Stats.Iterations == 0 {
		t.Error("corrections happened but Iterations is 0")
	}
}

func TestTspSZiBetterRatioThanTspSZ1(t *testing.T) {
	f := gyre2D(56, 48)
	base := Options{Mode: ebound.Absolute, ErrBound: 0.05, Params: testParams(), Tau: 1.0, Workers: 2}
	o1 := base
	o1.Variant = TspSZ1
	oi := base
	oi.Variant = TspSZi
	r1, err := Compress(f, o1)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := Compress(f, oi)
	if err != nil {
		t.Fatal(err)
	}
	// TspSZ-i should need no more lossless vertices than TspSZ-1
	// (usually far fewer).
	if ri.Stats.LosslessCount > r1.Stats.LosslessCount {
		t.Errorf("TspSZ-i lossless %d > TspSZ-1 %d", ri.Stats.LosslessCount, r1.Stats.LosslessCount)
	}
}

func TestTspSZ1Exact3D(t *testing.T) {
	f := turb3D(14)
	par := integrate.Params{EpsP: 1e-2, MaxSteps: 150, H: 0.05}
	opts := Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 0.05, Params: par, Workers: 2}
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(res.Bytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSkeletonPreserved(t, f, dec, par, math.Sqrt2, true)
	if res.Stats.NumSeps != 6*res.Stats.NumSaddles {
		t.Errorf("NumSeps %d != 6×%d saddles", res.Stats.NumSeps, res.Stats.NumSaddles)
	}
}

func TestTspSZi3D(t *testing.T) {
	f := turb3D(14)
	par := integrate.Params{EpsP: 1e-2, MaxSteps: 150, H: 0.05}
	tau := 0.5
	opts := Options{Variant: TspSZi, Mode: ebound.Absolute, ErrBound: 0.05, Params: par, Tau: tau, Workers: 2}
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(res.Bytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSkeletonPreserved(t, f, dec, par, tau, false)
}

func TestDefaultsApplied(t *testing.T) {
	o := Options{Variant: TspSZi, Mode: ebound.Absolute, ErrBound: 0.01}
	d := o.withDefaults()
	if d.Params != integrate.DefaultParams() {
		t.Error("default params not applied")
	}
	if d.Tau != math.Sqrt2 {
		t.Error("default tau not applied")
	}
	if d.MaxIterations != 64 {
		t.Error("default max iterations not applied")
	}
}

func TestCompressRejectsBadBound(t *testing.T) {
	f := gyre2D(16, 16)
	if _, err := Compress(f, Options{Variant: TspSZ1, ErrBound: 0}); err == nil {
		t.Error("zero bound accepted")
	}
}

// TestTauValidated runs each τ through every entry point that runs
// TspSZ-i. NaN and negative values must fail, naming τ, before any stage
// runs; 0 selects the √2 default and +Inf stays valid.
func TestTauValidated(t *testing.T) {
	f := gyre2D(24, 20)
	frames := []*field.Field{f, f}
	base := Options{Variant: TspSZi, Mode: ebound.Absolute, ErrBound: 0.05, Params: testParams(), Workers: 1}
	def := base
	def.Tau = math.Sqrt2
	want, err := Compress(f, def)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tau float64
		ok  bool
	}{
		{math.NaN(), false},
		{-0.05, false},
		{0, true},
		{math.Inf(1), true},
	} {
		opts := base
		opts.Tau = tc.tau
		opts.Collector = obs.New()
		res, err := Compress(f, opts)
		seq, seqErr := CompressSequence(frames, opts)
		var buf bytes.Buffer
		_, streamErr := CompressSequenceStream(nil, &buf, len(frames),
			field.FrameFetcherFunc(func(i int) (*field.Field, error) { return frames[i], nil }), opts)
		if !tc.ok {
			for name, err := range map[string]error{"Compress": err, "CompressSequence": seqErr, "CompressSequenceStream": streamErr} {
				if err == nil || !strings.Contains(err.Error(), "tau") {
					t.Errorf("%s accepted tau %v or did not name it: %v", name, tc.tau, err)
				}
			}
			if n := len(opts.Collector.Snapshot().Spans); n != 0 || buf.Len() != 0 {
				t.Errorf("tau %v: rejected after %d stages and %d bytes written", tc.tau, n, buf.Len())
			}
			continue
		}
		if err != nil || seqErr != nil || streamErr != nil {
			t.Fatalf("tau %v rejected: %v / %v / %v", tc.tau, err, seqErr, streamErr)
		}
		if len(seq.Stats) != len(frames) || buf.Len() == 0 {
			t.Errorf("tau %v: sequence paths produced %d frames and %d bytes", tc.tau, len(seq.Stats), buf.Len())
		}
		if tc.tau == 0 && !bytes.Equal(res.Bytes, want.Bytes) {
			t.Error("tau 0 does not select the √2 default")
		}
	}
}

func TestDecompressRejectsCorruption(t *testing.T) {
	f := gyre2D(20, 20)
	res, err := Compress(f, Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 0.05, Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil, 1); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Decompress([]byte("BLAH1234"), 1); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decompress(res.Bytes[:len(res.Bytes)/3], 1); err == nil {
		t.Error("truncated accepted")
	}
}

func TestVariantString(t *testing.T) {
	if TspSZ1.String() != "TspSZ-1" || TspSZi.String() != "TspSZ-i" {
		t.Error("Variant.String mismatch")
	}
}

func TestPatchRoundTrip(t *testing.T) {
	f := gyre2D(16, 16)
	patched := newTestBitmap(f.NumVertices(), []int{0, 5, 17, 100, 255})
	p := buildPatch(f, patched)
	packed, err := p.marshal(2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalPatch(packed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.indices) != len(p.indices) {
		t.Fatalf("patch count %d, want %d", len(got.indices), len(p.indices))
	}
	g := field.New2D(16, 16)
	if err := got.apply(g); err != nil {
		t.Fatal(err)
	}
	for _, idx := range p.indices {
		if g.U[idx] != f.U[idx] || g.V[idx] != f.V[idx] {
			t.Fatalf("patch did not restore vertex %d", idx)
		}
	}
}

func TestPatchRejectsOutOfRange(t *testing.T) {
	p := patchSet{indices: []int{999}, values: [][]float32{{1}, {2}}}
	if err := p.apply(field.New2D(4, 4)); err == nil {
		t.Error("out-of-range patch accepted")
	}
}

// TestRobustCPOption: with fixed-point SoS membership the compressor must
// still preserve the skeleton, and on generic (tie-free) data it must
// produce the exact same archive as the numerical path — the option only
// changes behavior at exact degeneracies.
func TestRobustCPOption(t *testing.T) {
	f := gyre2D(48, 40)
	base := Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 0.01,
		Params: testParams(), Workers: 2}
	robustOpts := base
	robustOpts.RobustCP = true

	plain, err := Compress(f, base)
	if err != nil {
		t.Fatal(err)
	}
	robust, err := Compress(f, robustOpts)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain.Bytes) != string(robust.Bytes) {
		t.Fatal("RobustCP changed the archive on generic data")
	}
	dec, err := Decompress(robust.Bytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSkeletonPreserved(t, f, dec, base.Params, math.Sqrt2, true)
}
