package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tspsz/internal/datagen"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/integrate"
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

// TestTspSZ1ArchivePinned pins TspSZ-I archives on a 2D field, a 3D field
// and a Nek5000 window where almost every vertex is stored losslessly.
// The lossless set is the union of the cells every separatrix samples, so
// how the tracer records that set is an implementation detail: changing it
// must not change a byte. TspSZ-I promises one archive for any worker
// count, so each field has one digest for workers 1 and 2.
//
// The digests may change only in a change that states an intended archive
// change.
func TestTspSZ1ArchivePinned(t *testing.T) {
	ocean, err := datagen.ByName("ocean", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	hurricane, err := datagen.ByName("hurricane", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Each field uses its dataset's absolute-mode settings from the
	// paper's tables (experiments.Standard).
	cases := []struct {
		name     string
		f        *field.Field
		opts     Options
		lossless int
		sha      string
	}{
		{
			name: "ocean",
			f:    ocean,
			opts: Options{Mode: ebound.Absolute, ErrBound: 2e-2,
				Params: integrate.Params{EpsP: 1e-2, MaxSteps: 1000, H: 2.5e-2}},
			lossless: 2160,
			sha:      "9d4bd63e0956a0057a88fe1835ce91b17e5a531c4dccd79f512b0b89915f95d1",
		},
		{
			name: "hurricane",
			f:    hurricane,
			opts: Options{Mode: ebound.Absolute, ErrBound: 5e-3,
				Params: integrate.Params{EpsP: 1e-2, MaxSteps: 1000, H: 5e-2}},
			lossless: 9188,
			sha:      "be7a369d753f1ec7aeb1628a8ad8b7a195274e934ea6b1d0d67ce92289b22ae1",
		},
		{
			name: "nek5000-window",
			f:    cropWindow(datagen.Nek5000(18), [3]int{2, 2, 2}, 14),
			opts: Options{Mode: ebound.Absolute, ErrBound: 1e-2,
				Params: integrate.Params{EpsP: 1e-2, MaxSteps: 1000, H: 2.5e-2}},
			lossless: 2638,
			sha:      "abad99d8dd462c33324a97275b7c491adfe02ec4519c9da6c6e27a6407f6f6f1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				opts := tc.opts
				opts.Workers = workers
				res, err := Compress(tc.f, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.LosslessCount != tc.lossless {
					t.Errorf("workers=%d: %d lossless vertices, want %d", workers, res.Stats.LosslessCount, tc.lossless)
				}
				sum := sha256.Sum256(res.Bytes)
				if hex.EncodeToString(sum[:]) != tc.sha {
					t.Errorf("workers=%d: archive (%d bytes) has SHA-256 %x, want %s", workers, len(res.Bytes), sum, tc.sha)
				}
			}
		})
	}
}

// cropWindow cuts the n³ window at offset off out of the 3D field f.
func cropWindow(f *field.Field, off [3]int, n int) *field.Field {
	w := field.New3D(n, n, n)
	src, dst := f.Components(), w.Components()
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				from := f.Grid.VertexIndex(off[0]+i, off[1]+j, off[2]+k)
				to := w.Grid.VertexIndex(i, j, k)
				for c := range src {
					dst[c][to] = src[c][from]
				}
			}
		}
	}
	return w
}

// TestSequenceArchivePinned pins a TspSZ-I sequence container: every frame
// after the first is compressed against the previous frame's
// reconstruction, so the temporal-reference path of the cpSZ engine and
// the Decompressed field it hands back are both load-bearing. TspSZ-I
// promises one archive for any worker count, so workers 1 and 2 share one
// digest.
//
// The digest may change only in a change that states an intended archive
// change.
func TestSequenceArchivePinned(t *testing.T) {
	frames := datagen.OceanSequence(72, 48, 3)
	const want = "39d4641ba0eeb4a458b03ccd77bac25a27b65813b617778daf759ff1d84263b0"
	for _, workers := range []int{1, 2} {
		opts := Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 2e-2,
			Params: integrate.Params{EpsP: 1e-2, MaxSteps: 1000, H: 2.5e-2}, Workers: workers}
		res, err := CompressSequence(frames, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(res.Bytes)
		if hex.EncodeToString(sum[:]) != want {
			t.Errorf("workers=%d: container (%d bytes) has SHA-256 %x, want %s", workers, len(res.Bytes), sum, want)
		}
	}
}
