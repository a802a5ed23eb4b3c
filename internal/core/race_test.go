package core

import (
	"math"
	"testing"

	"tspsz/internal/ebound"
	"tspsz/internal/field"
)

// stressField is a 72×64 gyre field engineered so that a strict τ leaves
// many separatrices wrong after plain cpSZ.
func stressField() *field.Field {
	f := field.New2D(72, 64)
	lx, ly := 35.5/3, 31.5/3
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		x, y := math.Pi*p[0]/lx, math.Pi*p[1]/ly
		f.U[idx] = float32(-math.Sin(x)*math.Cos(y) - 0.08*math.Cos(x)*math.Sin(y))
		f.V[idx] = float32(math.Cos(x)*math.Sin(y) - 0.08*math.Sin(x)*math.Cos(y))
	}
	return f
}

// A field engineered to produce many wrong separatrices so the speculative
// parallel correction actually overlaps: run under -race to validate the
// locking discipline of patchLog.
func TestTspSZiParallelCorrectionStress(t *testing.T) {
	f := stressField()
	opts := Options{
		Variant: TspSZi, Mode: ebound.Absolute, ErrBound: 0.08,
		Params: testParams(), Tau: 0.05, // strict: force many corrections
		Workers: 8,
	}
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InitiallyIncorrect < 2 {
		t.Skipf("only %d initially wrong; stress needs parallel overlap", res.Stats.InitiallyIncorrect)
	}
	dec, err := Decompress(res.Bytes, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkSkeletonPreserved(t, f, dec, opts.Params, opts.Tau, false)
}
