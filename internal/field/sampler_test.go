package field_test

import (
	"math"
	"math/rand"
	"testing"

	"tspsz/internal/field"
	"tspsz/internal/field/fieldtest"
)

// randomField fills a 2D (nz == 0) or 3D field with values in [-1, 1).
func randomField(nx, ny, nz int, seed int64) *field.Field {
	var f *field.Field
	if nz == 0 {
		f = field.New2D(nx, ny)
	} else {
		f = field.New3D(nx, ny, nz)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, comp := range f.Components() {
		for i := range comp {
			comp[i] = rng.Float32()*2 - 1
		}
	}
	return f
}

// specials are the component values whose products and sums a sampler
// could round, order or sign differently from the reference: ±0, a
// subnormal, the largest float32, ±Inf (Inf·0 is NaN) and NaN.
var specials = []float32{
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// withSpecials returns a copy of f with about one vertex component in four
// replaced by a special value.
func withSpecials(f *field.Field, seed int64) *field.Field {
	g := f.Clone()
	rng := rand.New(rand.NewSource(seed))
	for _, comp := range g.Components() {
		for i := range comp {
			if rng.Intn(4) == 0 {
				comp[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	return g
}

// negZero returns a copy of f holding −0 everywhere. Inside a cell every
// product is then −0, and only a sum that starts at +0, as the reference's
// does, comes out +0.
func negZero(f *field.Field) *field.Field {
	g := f.Clone()
	for _, comp := range g.Components() {
		for i := range comp {
			comp[i] = float32(math.Copysign(0, -1))
		}
	}
	return g
}

// samplerCases are the fields the sampler is held to the reference on: 2D
// and 3D, random, holding special values or −0 everywhere, and a 3D grid
// whose W is nil.
func samplerCases() []struct {
	name string
	f    *field.Field
} {
	f2 := randomField(7, 5, 0, 1)
	f3 := randomField(5, 4, 6, 2)
	noW := randomField(4, 5, 3, 3)
	noW.W = nil
	return []struct {
		name string
		f    *field.Field
	}{
		{"2d", f2},
		{"3d", f3},
		{"2d-specials", withSpecials(f2, 4)},
		{"3d-specials", withSpecials(f3, 5)},
		{"2d-negzero", negZero(f2)},
		{"3d-negzero", negZero(f3)},
		{"3d-nil-w", noW},
		{"3d-nil-w-specials", withSpecials(noW, 6)},
		{"2x2x2", randomField(2, 2, 2, 7)},
	}
}

// samplePoints returns point walks over f's domain, in the order a sampler
// sees them: random walks with short and long steps that stay in a cell,
// leave it, re-enter it and leave the domain; every point of a quarter-unit
// lattice (vertices, edges, faces, cube borders and the far faces, which
// map into the last cell); points with tied local coordinates; and −0, NaN,
// ±Inf and just-outside coordinates.
func samplePoints(f *field.Field, seed int64) [][3]float64 {
	rng := rand.New(rand.NewSource(seed))
	nx, ny, nz := f.Grid.Dims()
	dim := f.Dim()
	ext := [3]float64{float64(nx - 1), float64(ny - 1), float64(nz - 1)}
	var ps [][3]float64
	for walk := 0; walk < 40; walk++ {
		var p [3]float64
		for d := 0; d < dim; d++ {
			p[d] = rng.Float64() * ext[d]
		}
		step := []float64{0.01, 0.1, 0.6}[walk%3]
		for n := 0; n < 60; n++ {
			ps = append(ps, p)
			if n%15 == 14 { // turn back, re-entering the cells just left
				step = -step
			}
			for d := 0; d < dim; d++ {
				p[d] += step * (rng.Float64()*2 - 0.5)
			}
		}
	}
	for k := 0; k <= 4*(nz-1); k++ {
		for j := 0; j <= 4*(ny-1); j++ {
			for i := 0; i <= 4*(nx-1); i++ {
				ps = append(ps, [3]float64{float64(i) / 4, float64(j) / 4, float64(k) / 4})
			}
		}
	}
	for n := 0; n < 300; n++ {
		var base [3]float64
		for d := 0; d < dim; d++ {
			base[d] = float64(rng.Intn(int(ext[d])))
		}
		a, b := rng.Float64(), rng.Float64()
		ties := [][3]float64{{a, a, a}, {a, a, b}, {a, b, a}, {b, a, a}, {a, b, b}, {1, a, a}, {a, 0, a}}
		for _, l := range ties {
			ps = append(ps, [3]float64{base[0] + l[0], base[1] + l[1], base[2] + l[2]})
		}
	}
	negZero := math.Copysign(0, -1)
	odd := []float64{negZero, math.NaN(), math.Inf(1), math.Inf(-1), -1e-300, math.MaxFloat64}
	for d := 0; d < 3; d++ {
		for _, x := range append(odd, ext[d], math.Nextafter(ext[d], math.Inf(1)), math.Nextafter(ext[d], 0)) {
			p := [3]float64{ext[0] / 2, ext[1] / 3, ext[2] / 2}
			p[d] = x
			ps = append(ps, p)
		}
	}
	return ps
}

// sameSample compares two samples bit for bit, except that any NaN equals
// any NaN: which operand's NaN an addition propagates is the hardware's
// choice, and the compiler may commute the operands, so Go leaves a NaN's
// sign and payload undefined.
func sameSample(a, b [3]float64, ca, cb int, oka, okb bool) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return ca == cb && oka == okb
}

// One sampler walking a list of points, and Field.Sample on each point
// alone, return the reference's vector bit for bit, its cell and its ok.
func TestSamplerMatchesReference(t *testing.T) {
	for ci, tc := range samplerCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := field.NewSampler(tc.f)
			hits := 0
			for _, p := range samplePoints(tc.f, int64(ci)) {
				want, wantCell, wantOK := fieldtest.RefSample(tc.f, p)
				u, v, w, cell, ok := s.Sample(p[0], p[1], p[2])
				got := [3]float64{u, v, w}
				if !sameSample(got, want, cell, wantCell, ok, wantOK) {
					t.Fatalf("Sampler.Sample(%v) = %v, cell %d, %v; reference %v, cell %d, %v",
						p, got, cell, ok, want, wantCell, wantOK)
				}
				got, cell, ok = tc.f.Sample(p)
				if !sameSample(got, want, cell, wantCell, ok, wantOK) {
					t.Fatalf("Field.Sample(%v) = %v, cell %d, %v; reference %v, cell %d, %v",
						p, got, cell, ok, want, wantCell, wantOK)
				}
				if ok {
					hits++
				}
			}
			if hits == 0 {
				t.Fatal("no point inside the domain")
			}
		})
	}
}

// FuzzSample holds one sampler walking a straight line of points, each
// optionally snapped to a quarter-unit lattice, to the reference over a
// fuzzed field of either dimension, with or without W, holding special
// values, −0 everywhere, or neither. The flag bits: 1 3D, 2 nil W,
// 4 special values, 8 snap, 16 −0.
func FuzzSample(f *testing.F) {
	f.Add(int64(1), uint8(0), 1.2, 2.3, 0.0, 0.05, 0.02, 0.0, uint8(40))
	f.Add(int64(2), uint8(1), 0.5, 0.5, 0.5, 0.1, 0.1, 0.1, uint8(30))
	f.Add(int64(3), uint8(3), 2.0, 1.0, 1.0, -0.25, 0.0, 0.25, uint8(20))
	f.Add(int64(4), uint8(13), 0.0, 0.0, 0.0, 0.3, 0.3, 0.3, uint8(12))
	f.Add(int64(5), uint8(5), 3.0, 2.0, 2.0, -0.01, -0.03, 0.02, uint8(64))
	f.Add(int64(6), uint8(9), math.Copysign(0, -1), 1.0, 1.0, math.NaN(), 0.5, 0.5, uint8(3))
	f.Add(int64(7), uint8(17), 0.3, 0.6, 0.9, 0.2, 0.1, 0.05, uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, flags uint8, x, y, z, dx, dy, dz float64, n uint8) {
		nz := 0
		if flags&1 != 0 {
			nz = 3
		}
		fld := randomField(4, 3, nz, seed)
		if flags&2 != 0 && nz != 0 {
			fld.W = nil
		}
		if flags&4 != 0 {
			fld = withSpecials(fld, seed)
		}
		if flags&16 != 0 {
			fld = negZero(fld)
		}
		s := field.NewSampler(fld)
		p := [3]float64{x, y, z}
		for i := 0; i <= int(n%96); i++ {
			q := p
			if flags&8 != 0 {
				for d := range q {
					q[d] = math.Round(q[d]*4) / 4
				}
			}
			want, wantCell, wantOK := fieldtest.RefSample(fld, q)
			u, v, w, cell, ok := s.Sample(q[0], q[1], q[2])
			if got := [3]float64{u, v, w}; !sameSample(got, want, cell, wantCell, ok, wantOK) {
				t.Fatalf("step %d: Sample(%v) = %v, cell %d, %v; reference %v, cell %d, %v",
					i, q, got, cell, ok, want, wantCell, wantOK)
			}
			p[0] += dx
			p[1] += dy
			p[2] += dz
		}
	})
}

// BenchmarkSample3D samples a 64³ field at random points, where every
// sample leaves the cube of the one before, and along a walk of short
// steps, where almost every sample stays in it. fieldSample is
// Field.Sample (a fresh sampler per point) at the random points; the ref
// rows run the reference on the same points.
func BenchmarkSample3D(b *testing.B) {
	f := randomField(64, 64, 64, 1)
	rng := rand.New(rand.NewSource(1))
	random := make([][3]float64, 1024)
	for i := range random {
		random[i] = [3]float64{rng.Float64() * 63, rng.Float64() * 63, rng.Float64() * 63}
	}
	walk := make([][3]float64, 1024)
	p := [3]float64{20, 20, 20}
	for i := range walk {
		walk[i] = p
		for d := range p {
			p[d] += 0.01 * (rng.Float64()*2 - 0.5)
		}
	}
	var sink float64
	run := func(name string, pts [][3]float64, sample func([3]float64) float64) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += sample(pts[i%len(pts)])
			}
		})
	}
	s := field.NewSampler(f)
	sampler := func(p [3]float64) float64 {
		u, _, _, _, _ := s.Sample(p[0], p[1], p[2])
		return u
	}
	fieldSample := func(p [3]float64) float64 {
		v, _, _ := f.Sample(p)
		return v[0]
	}
	ref := func(p [3]float64) float64 {
		v, _, _ := fieldtest.RefSample(f, p)
		return v[0]
	}
	run("random", random, sampler)
	run("fieldSample", random, fieldSample)
	run("refRandom", random, ref)
	run("walk", walk, sampler)
	run("refWalk", walk, ref)
	_ = sink
}
