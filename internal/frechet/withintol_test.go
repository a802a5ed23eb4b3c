package frechet

import (
	"math"
	"math/rand"
	"testing"
)

// path samples the smooth curve c(s) = (s, 2 sin(s/3), cos(s/7)) at
// s = s0 + k·h for k < n, h-spaced like a traced separatrix.
func path(n int, s0, h float64) []Point {
	out := make([]Point, n)
	for k := range out {
		s := s0 + float64(k)*h
		out[k] = Point{s, 2 * math.Sin(s/3), math.Cos(s / 7)}
	}
	return out
}

// jitter moves every point by up to amp per coordinate.
func jitter(rng *rand.Rand, p []Point, amp float64) {
	for k := range p {
		for c := range p[k] {
			p[k][c] += amp * (2*rng.Float64() - 1)
		}
	}
}

// separatrixPair draws a curve h-spaced along path and a second curve that
// follows it the way a retraced separatrix follows its original: shifted
// in phase, sampled at a slightly different step, truncated or extended at
// either end, jittered.
func separatrixPair(rng *rand.Rand) (p, q []Point) {
	h := []float64{0.025, 0.05, 0.1}[rng.Intn(3)]
	n := 1 + rng.Intn(80)
	s0 := 10 * rng.Float64()
	p = path(n, s0, h)
	step := h
	if rng.Intn(3) == 0 {
		step *= 1 + 0.2*(2*rng.Float64()-1)
	}
	shift := 0.0
	if rng.Intn(2) == 0 {
		shift = 4 * h * (2*rng.Float64() - 1)
	}
	head := 0 // points dropped (> 0) or added (< 0) at the start
	if rng.Intn(3) == 0 {
		head = rng.Intn(7) - 3
	}
	m := max(1, n+rng.Intn(11)-5-head)
	q = path(m, s0+shift+float64(head)*step, step)
	if rng.Intn(2) == 0 {
		jitter(rng, q, 4*h*rng.Float64())
	}
	return p, q
}

// mismatchPair pairs curves of very different lengths, single points
// included.
func mismatchPair(rng *rand.Rand) (p, q []Point) {
	base := path(1+rng.Intn(40), 10*rng.Float64(), 0.1)
	switch rng.Intn(4) {
	case 0:
		return base[:1], base[len(base)-1:]
	case 1:
		q = append([]Point(nil), base[rng.Intn(len(base)):][:1]...)
		return base, q
	case 2:
		q = append([]Point(nil), base[:1+rng.Intn(len(base))]...)
		jitter(rng, q, 0.3*rng.Float64())
		return base, q
	default:
		return randCurve(rng, 1), randCurve(rng, 1+rng.Intn(5))
	}
}

// gridPair draws small-integer curves, whose squared distances are exact
// integers, so an integer tol lands exactly on cell boundaries.
func gridPair(rng *rand.Rand) (p, q []Point) {
	walk := func(n int) []Point {
		out := make([]Point, n)
		var x, y float64
		for k := range out {
			x += float64(rng.Intn(3) - 1)
			y += float64(rng.Intn(3) - 1)
			out[k] = Point{x, y, 0}
		}
		return out
	}
	return walk(1 + rng.Intn(25)), walk(1 + rng.Intn(25))
}

// TestWithinTolMatchesFullDP checks the tiered WithinTol against the full
// reachability DP on 10⁵ seeded pairs: independent random walks,
// separatrix-like pairs, length mismatches and single points, integer
// grids with ties, and NaN coordinates, each at tolerances that include 0,
// exactly Distance(p, q), values a rounding step either side of it, √2,
// ±Inf, NaN and negative values.
func TestWithinTolMatchesFullDP(t *testing.T) {
	const pairs = 100_000
	rng := rand.New(rand.NewSource(20250612))
	var coupled, banded, endRejects int
	for trial := 0; trial < pairs; trial++ {
		var p, q []Point
		kind := rng.Intn(4)
		switch kind {
		case 0:
			p, q = randCurve(rng, 1+rng.Intn(40)), randCurve(rng, 1+rng.Intn(40))
		case 1:
			p, q = separatrixPair(rng)
		case 2:
			p, q = mismatchPair(rng)
		default:
			p, q = gridPair(rng)
		}
		if rng.Intn(20) == 0 {
			c := p
			if rng.Intn(2) == 0 {
				c = q
			}
			c[rng.Intn(len(c))][rng.Intn(3)] = math.NaN()
		}
		if rng.Intn(2) == 0 {
			p, q = q, p
		}

		var tol float64
		switch rng.Intn(10) {
		case 0:
			tol = 0
		case 1, 2:
			tol = Distance(p, q)
		case 3:
			tol = math.Nextafter(Distance(p, q), math.Inf(1))
		case 4:
			tol = math.Nextafter(Distance(p, q), 0)
		case 5:
			tol = math.Sqrt2
		case 6:
			if kind == 3 {
				tol = float64(rng.Intn(4))
			} else {
				tol = 2 * rng.Float64() * Distance(p, q)
			}
		case 7:
			tol = []float64{math.Inf(1), math.Inf(-1), math.NaN(), -math.Sqrt2}[rng.Intn(4)]
		default:
			tol = 2 * rng.Float64() * Distance(p, q)
		}

		got, want := WithinTol(p, q, tol), fullWithinTol(p, q, tol)
		if got != want {
			t.Fatalf("trial %d (kind %d, |p|=%d, |q|=%d, tol=%v): WithinTol=%v, full DP=%v\np=%v\nq=%v",
				trial, kind, len(p), len(q), tol, got, want, p, q)
		}
		t2 := tol * tol
		switch {
		case !(sqDist(p[len(p)-1], q[len(q)-1]) <= t2):
			endRejects++
		case want && couplingWithin(p, q, t2):
			coupled++
		case want:
			banded++
		}
	}
	// Every tier must carry real weight, or the agreement above proves
	// little about it.
	t.Logf("%d pairs: %d accepted by the coupling, %d through the band, %d rejected at the end points",
		pairs, coupled, banded, endRejects)
	for name, n := range map[string]int{"coupling accepts": coupled, "band accepts": banded,
		"end-point rejects": endRejects, "other rejects": pairs - coupled - banded - endRejects} {
		if n < pairs/50 {
			t.Errorf("only %d %s in %d pairs", n, name, pairs)
		}
	}
}

// fuzzCurve decodes up to 64 points, three bytes each. Coordinates are
// signed bytes in eighths, and byte 0x80 is NaN. When base is non-empty
// and the leading flag byte is odd, each decoded coordinate is instead an
// offset in 64ths from the same-index point of base (its last point past
// its end), so the fuzzer reaches closely tracking pairs.
func fuzzCurve(b []byte, base []Point) []Point {
	if len(b) == 0 {
		return nil
	}
	rel := b[0]&1 == 1 && len(base) > 0
	b = b[1:]
	out := make([]Point, min(len(b)/3, 64))
	for k := range out {
		for c := range out[k] {
			raw := b[3*k+c]
			v := float64(int8(raw))
			if raw == 0x80 {
				v = math.NaN()
			}
			if rel {
				out[k][c] = base[min(k, len(base)-1)][c] + v/64
			} else {
				out[k][c] = v / 8
			}
		}
	}
	return out
}

// FuzzWithinTol holds WithinTol to the full reachability DP on fuzzed
// curves and tolerances.
func FuzzWithinTol(f *testing.F) {
	f.Add([]byte{0, 8, 0, 0, 16, 8, 0, 24, 16, 0}, []byte{1, 1, 2, 0, 3, 1, 0, 2, 0, 0}, 0.5)
	f.Add([]byte{0, 8, 0, 0, 16, 8, 0, 24, 16, 0}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 60, 60, 0}, math.Sqrt2)
	f.Add([]byte{0, 1, 2, 3}, []byte{0, 1, 2, 3}, 0.0)
	f.Add([]byte{0, 1, 0x80, 3}, []byte{0, 1, 2, 3}, math.Inf(1))
	f.Add([]byte{0, 10, 0, 0, 20, 0, 0, 30, 0, 0, 40, 0, 0}, []byte{0, 10, 4, 0, 30, 4, 0, 40, 4, 0}, 0.5)
	f.Add([]byte{}, []byte{0, 1, 2, 3}, 1.0)
	f.Fuzz(func(t *testing.T, pb, qb []byte, tol float64) {
		p := fuzzCurve(pb, nil)
		q := fuzzCurve(qb, p)
		if got, want := WithinTol(p, q, tol), fullWithinTol(p, q, tol); got != want {
			t.Fatalf("WithinTol=%v, full DP=%v (tol=%v)\np=%v\nq=%v", got, want, tol, p, q)
		}
	})
}

// BenchmarkWithinTol times each tier on the pairs the compressor checks:
// 1000-point curves at step h = 0.05 against τ = √2.
func BenchmarkWithinTol(b *testing.B) {
	const n, h = 1000, 0.05
	tau := math.Sqrt2
	p := path(n, 0, h)

	// Tracks p point for point: the linear coupling settles it.
	tracking := path(n, 0, h)
	jitter(rand.New(rand.NewSource(1)), tracking, 0.3)
	// The same curve sampled 5% faster, so its k-th point drifts ahead of
	// p's by more than τ while the curves stay within τ: only the band DP
	// finds the coupling.
	drifting := path(int(math.Round(float64(n-1)/1.05))+1, 0, 1.05*h)
	// Runs on past p's end: rejected at the end points.
	overshooting := path(n+100, 0, h)
	// Leaves p by 4 in y for 100 points mid-curve: the band dies there.
	bumped := path(n, 0, h)
	for k := 450; k < 550; k++ {
		bumped[k][1] += 4
	}

	cases := []struct {
		name     string
		q        []Point
		want     bool
		coupling bool
	}{
		{"accept-coupling", tracking, true, true},
		{"accept-band", drifting, true, false},
		{"reject-end", overshooting, false, false},
		{"reject-mid", bumped, false, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			if WithinTol(p, c.q, tau) != c.want || couplingWithin(p, c.q, tau*tau) != c.coupling {
				b.Fatalf("pair does not exercise the intended tier")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				withinSink = WithinTol(p, c.q, tau)
			}
		})
	}
}

// withinSink keeps the benchmarked calls from being optimized away.
var withinSink bool
