package ebound

import (
	"math"
	"math/rand"
	"testing"
)

// Perturbations within the SoS bound must never flip any determinant sign.
func TestSoSCell2DPreservesSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tested := 0
	for trial := 0; trial < 10000 && tested < 3000; trial++ {
		var v [3][2]float64
		for i := range v {
			v[i][0] = rng.NormFloat64()
			v[i][1] = rng.NormFloat64()
		}
		cur := rng.Intn(3)
		eb, _ := oneCell2D(v, cur, Absolute, true)
		if eb == 0 || math.IsInf(eb, 1) {
			continue
		}
		tested++
		before := SignPattern2D(v)
		for probe := 0; probe < 8; probe++ {
			w := v
			su, sv := 1.0, -1.0
			if probe%2 == 1 {
				su = -1
			}
			if (probe/2)%2 == 1 {
				sv = 1
			}
			if probe >= 4 {
				su *= rng.Float64()
				sv *= rng.Float64()
			}
			w[cur][0] += su * eb
			w[cur][1] += sv * eb
			if SignPattern2D(w) != before {
				t.Fatalf("trial %d: sign pattern flipped within SoS bound %v", trial, eb)
			}
		}
	}
	if tested < 500 {
		t.Fatalf("only %d cells exercised", tested)
	}
}

func TestSoSCell3DPreservesSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tested := 0
	for trial := 0; trial < 10000 && tested < 1500; trial++ {
		var v [4][3]float64
		for i := range v {
			for d := 0; d < 3; d++ {
				v[i][d] = rng.NormFloat64()
			}
		}
		cur := rng.Intn(4)
		eb, _ := oneCell3D(v, cur, Absolute, true)
		if eb == 0 || math.IsInf(eb, 1) {
			continue
		}
		tested++
		before := SignPattern3D(v)
		for probe := 0; probe < 8; probe++ {
			w := v
			for d := 0; d < 3; d++ {
				s := 1.0
				if probe>>(uint(d))&1 == 1 {
					s = -1
				}
				w[cur][d] += s * eb
			}
			if SignPattern3D(w) != before {
				t.Fatalf("trial %d: 3D sign pattern flipped within SoS bound %v", trial, eb)
			}
		}
	}
	if tested < 300 {
		t.Fatalf("only %d cells exercised", tested)
	}
}

// SoS bounds must be no looser than the eligible-k Theorem 1 bound is
// *permissive*: SoS preserves strictly more signs, so its bound can never
// exceed the FP-avoidance bound on the same cp-free cell.
func TestSoSBoundTighterThanCoupled(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 2000; trial++ {
		var v [3][2]float64
		for i := range v {
			v[i][0] = rng.NormFloat64()
			v[i][1] = rng.NormFloat64()
		}
		cur := rng.Intn(3)
		coupledEB, hasCP := oneCell2D(v, cur, Absolute, false)
		if hasCP {
			continue
		}
		sosEB, _ := oneCell2D(v, cur, Absolute, true)
		if sosEB > coupledEB*(1+1e-9) {
			t.Fatalf("trial %d: SoS bound %v looser than coupled %v", trial, sosEB, coupledEB)
		}
	}
}

// Relative-mode 3D soundness (the 2D and absolute variants are covered in
// ebound_test.go).
func TestCell3DRelativeNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tested := 0
	for trial := 0; trial < 20000 && tested < 1500; trial++ {
		var v [4][3]float64
		for i := range v {
			for d := 0; d < 3; d++ {
				v[i][d] = rng.NormFloat64()
			}
		}
		if cellHasCP3D(v) {
			continue
		}
		cur := rng.Intn(4)
		ebr, hasCP := oneCell3D(v, cur, Relative, false)
		if hasCP || ebr == 0 || math.IsInf(ebr, 1) {
			continue
		}
		tested++
		for probe := 0; probe < 16; probe++ {
			w := v
			for d := 0; d < 3; d++ {
				s := 1.0
				if probe>>(uint(d))&1 == 1 {
					s = -1
				}
				if probe >= 8 {
					s *= rng.Float64()
				}
				w[cur][d] += s * ebr * math.Abs(v[cur][d])
			}
			if cellHasCP3D(w) {
				t.Fatalf("trial %d: 3D relative FP within ε_r=%v", trial, ebr)
			}
		}
	}
	if tested < 300 {
		t.Fatalf("only %d cells exercised", tested)
	}
}
