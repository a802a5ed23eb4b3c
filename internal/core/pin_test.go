package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tspsz/internal/datagen"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
)

// TestTspSZiArchivePinned pins the TspSZ-i archive and its correction
// statistics at workers=1 on two fields whose correction does real work.
// How separatrices are verified (frechet.WithinTol, skeleton.CheckTraj,
// the verification rounds) is an implementation detail: speeding it up
// must not change a byte.
//
// The digests may change only in a change that states an intended archive
// change.
func TestTspSZiArchivePinned(t *testing.T) {
	hurricane, err := datagen.ByName("hurricane", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		f     *field.Field
		opts  Options
		stats Stats // InitiallyIncorrect, Iterations and PatchedVertices
		sha   string
	}{
		{
			name: "stress",
			f:    stressField(),
			opts: Options{Variant: TspSZi, Mode: ebound.Absolute, ErrBound: 0.08,
				Params: testParams(), Tau: 0.05, Workers: 1},
			stats: Stats{InitiallyIncorrect: 32, Iterations: 1, PatchedVertices: 107},
			sha:   "f5ff3a7c4c010d44953b2e16223f2e287f1879461e0c119a3c95f52aabe9a731",
		},
		{
			// Default RK4 parameters (h = 0.05) and the default τ = √2.
			name:  "hurricane",
			f:     hurricane,
			opts:  Options{Variant: TspSZi, Mode: ebound.Absolute, ErrBound: 5e-3, Workers: 1},
			stats: Stats{InitiallyIncorrect: 6, Iterations: 2, PatchedVertices: 804},
			sha:   "983a06db250f1ab65d8c34ba7548ce040fb516b1fb98357bdc9e54800ae70cff",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Compress(tc.f, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := Stats{
				InitiallyIncorrect: res.Stats.InitiallyIncorrect,
				Iterations:         res.Stats.Iterations,
				PatchedVertices:    res.Stats.PatchedVertices,
			}
			if got != tc.stats {
				t.Errorf("stats %+v, want %+v", got, tc.stats)
			}
			sum := sha256.Sum256(res.Bytes)
			if hex.EncodeToString(sum[:]) != tc.sha {
				t.Errorf("archive (%d bytes) has SHA-256 %x, want %s", len(res.Bytes), sum, tc.sha)
			}
		})
	}
}
