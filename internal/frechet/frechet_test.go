package frechet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func line(n int, y float64) []Point {
	p := make([]Point, n)
	for i := range p {
		p[i] = Point{float64(i), y, 0}
	}
	return p
}

func TestIdenticalCurvesZero(t *testing.T) {
	p := line(10, 0)
	if d := Distance(p, p); d != 0 {
		t.Errorf("Distance(p,p) = %v, want 0", d)
	}
	if !WithinTol(p, p, 0) {
		t.Error("WithinTol(p,p,0) = false")
	}
}

func TestParallelLines(t *testing.T) {
	p := line(20, 0)
	q := line(20, 3)
	if d := Distance(p, q); math.Abs(d-3) > 1e-12 {
		t.Errorf("parallel lines distance = %v, want 3", d)
	}
	if WithinTol(p, q, 2.9) {
		t.Error("WithinTol should fail at 2.9")
	}
	if !WithinTol(p, q, 3.0) {
		t.Error("WithinTol should pass at 3.0")
	}
}

func TestDifferentLengths(t *testing.T) {
	p := line(5, 0)
	q := line(17, 1)
	d := Distance(p, q)
	if d < 1 {
		t.Errorf("distance %v below pointwise lower bound 1", d)
	}
	if !WithinTol(p, q, d+1e-9) {
		t.Error("WithinTol disagrees with Distance (pass case)")
	}
	if WithinTol(p, q, d-1e-6) {
		t.Error("WithinTol disagrees with Distance (fail case)")
	}
}

func TestEmptyCurves(t *testing.T) {
	if d := Distance(nil, nil); d != 0 {
		t.Errorf("Distance(nil,nil) = %v, want 0", d)
	}
	if !math.IsInf(Distance(line(3, 0), nil), 1) {
		t.Error("Distance(p,nil) should be +Inf")
	}
	if !WithinTol(nil, nil, 0) {
		t.Error("WithinTol(nil,nil) should hold")
	}
	if WithinTol(line(3, 0), nil, 100) {
		t.Error("WithinTol(p,nil) should fail")
	}
}

func TestSinglePoints(t *testing.T) {
	p := []Point{{0, 0, 0}}
	q := []Point{{3, 4, 0}}
	if d := Distance(p, q); math.Abs(d-5) > 1e-12 {
		t.Errorf("single point distance = %v, want 5", d)
	}
}

func randCurve(rng *rand.Rand, n int) []Point {
	p := make([]Point, n)
	x, y, z := 0.0, 0.0, 0.0
	for i := range p {
		x += rng.NormFloat64()
		y += rng.NormFloat64()
		z += rng.NormFloat64()
		p[i] = Point{x, y, z}
	}
	return p
}

// Property: symmetry, non-negativity, endpoint lower bound, and agreement
// between Distance and WithinTol.
func TestProperties(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 1
		m := int(mRaw%30) + 1
		p := randCurve(rng, n)
		q := randCurve(rng, m)
		d := Distance(p, q)
		if d < 0 {
			return false
		}
		if math.Abs(Distance(q, p)-d) > 1e-9 {
			return false
		}
		// Lower bound: max of endpoint distances.
		lb := math.Max(math.Sqrt(sqDist(p[0], q[0])), math.Sqrt(sqDist(p[n-1], q[m-1])))
		if d < lb-1e-9 {
			return false
		}
		return WithinTol(p, q, d+1e-9) && (d == 0 || !WithinTol(p, q, d*(1-1e-9)-1e-12))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Inserting a point on the segment between two existing points cannot
// increase the discrete Fréchet distance beyond the original plus segment
// slack; at minimum it must stay finite and close. We check the weaker, exact
// property that duplicating a point leaves the distance unchanged.
func TestDuplicatePointInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		p := randCurve(rng, 12)
		q := randCurve(rng, 9)
		d := Distance(p, q)
		k := rng.Intn(len(p))
		pp := append(append(append([]Point{}, p[:k+1]...), p[k]), p[k+1:]...)
		if math.Abs(Distance(pp, q)-d) > 1e-9 {
			t.Fatalf("duplicating point changed distance: %v vs %v", Distance(pp, q), d)
		}
	}
}

func BenchmarkDistance1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randCurve(rng, 1000)
	q := randCurve(rng, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Distance(p, q)
	}
}
