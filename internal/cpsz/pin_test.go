package cpsz

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tspsz/internal/critical"
	"tspsz/internal/datagen"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
)

// TestArchivePinned pins, by SHA-256, one archive for every way the
// compressor derives per-vertex bounds: the coupled bound in both error
// modes and both dimensions under the Lorenzo predictor, the SoS bound in
// both dimensions, the interpolation predictor, and the streaming sweep
// without a bound fetcher. The fields hold critical points, so both the
// lossless (critical-point cell) and the derived-bound paths run. How
// ebound computes a bound is an implementation detail: making it faster
// must not change a byte.
//
// The digests may change only in a change that states an intended archive
// change.
func TestArchivePinned(t *testing.T) {
	ocean := datagen.Ocean(72, 48)
	hurricane := datagen.Hurricane(24, 24, 10)
	for _, f := range []*field.Field{ocean, hurricane} {
		if len(critical.Extract(f)) == 0 {
			t.Fatal("setup: a pinned field has no critical points")
		}
	}
	cases := []struct {
		name   string
		f      *field.Field
		opts   Options
		stream bool
		sha    string
	}{
		{name: "abs-2d", f: ocean, opts: Options{Mode: ebound.Absolute, ErrBound: 2e-2},
			sha: "4e65b960b0496d3dd145ba2685232a983d8c020ad381f3fdfc105b0aca0c9ce8"},
		{name: "rel-2d", f: ocean, opts: Options{Mode: ebound.Relative, ErrBound: 5e-2},
			sha: "fc0430981f51a82c58fefa61e8bad0705c3088a4156a3ebbd09247f0c004c41d"},
		{name: "abs-3d", f: hurricane, opts: Options{Mode: ebound.Absolute, ErrBound: 5e-3},
			sha: "20dc75d2b3956f405c2ac4dea7fe676e22da05a4570b4260d59976ecd24f9768"},
		{name: "rel-3d", f: hurricane, opts: Options{Mode: ebound.Relative, ErrBound: 5e-2},
			sha: "443f902e271c350a3913db6355dcd071155c317b4e58714bacb8d1c2f1b0cdde"},
		{name: "sos-2d", f: ocean, opts: Options{Mode: ebound.Absolute, ErrBound: 2e-2, SoS: true},
			sha: "ed8354fae2b2e276ad98b036e82ad909b43d675e3e3702e54338ad3880eca7a1"},
		{name: "sos-3d", f: hurricane, opts: Options{Mode: ebound.Relative, ErrBound: 5e-2, SoS: true},
			sha: "7bee276cdcc772f4c9dec17678ef922dd8111c9005d61b433779bf450223787d"},
		{name: "interp-2d", f: ocean, opts: Options{Mode: ebound.Absolute, ErrBound: 2e-2, Predictor: PredictorInterpolation},
			sha: "22f85ddc4e94a645f7092d5d729d72a23c1102024b00416a0a5b8630113a76af"},
		{name: "interp-3d", f: hurricane, opts: Options{Mode: ebound.Relative, ErrBound: 5e-2, Predictor: PredictorInterpolation},
			sha: "7736b1e257a664d17b481c8255374e233c3bdf6dacafe8318ba7d52b7d111a0b"},
		{name: "stream-abs", f: hurricane, opts: Options{Mode: ebound.Absolute, ErrBound: 5e-3}, stream: true,
			sha: "20dc75d2b3956f405c2ac4dea7fe676e22da05a4570b4260d59976ecd24f9768"},
		{name: "stream-rel", f: turbBox(16, 14, 40), opts: Options{Mode: ebound.Relative, ErrBound: 5e-2}, stream: true,
			sha: "22964e7192b9a3fe764c535dcdfdff273b53c00683e4d094a141e12c47dc1b9b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Workers = 2
			var archive []byte
			if tc.stream {
				nx, ny, nz := tc.f.Grid.Dims()
				var buf bytes.Buffer
				if _, err := CompressStream(nil, &buf, nx, ny, nz, field.Layers(tc.f), nil, tc.opts); err != nil {
					t.Fatal(err)
				}
				archive = buf.Bytes()
			} else {
				res, err := Compress(tc.f, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				archive = res.Bytes
			}
			sum := sha256.Sum256(archive)
			if hex.EncodeToString(sum[:]) != tc.sha {
				t.Errorf("archive (%d bytes) has SHA-256 %x, want %s", len(archive), sum, tc.sha)
			}
		})
	}
}
