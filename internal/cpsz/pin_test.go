package cpsz

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tspsz/internal/bitmap"
	"tspsz/internal/critical"
	"tspsz/internal/datagen"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
)

// TestArchivePinned pins, by SHA-256, one archive for every way the
// compressor derives per-vertex bounds and for every input the Lorenzo
// engine carries: the coupled bound in both error modes and both
// dimensions, the SoS bound and the Plain bound in both dimensions, a
// temporal reference in both dimensions, a forced-lossless bitmap, the
// interpolation predictor, and the streaming sweep without a bound
// fetcher. The fields hold critical points, so both the lossless
// (critical-point cell) and the derived-bound paths run. For every
// in-memory case the decoder must return Result.Decompressed bit for bit,
// and the count of losslessly stored vertices is pinned too. How ebound
// computes a bound, or how the engine schedules regions and seals
// sections, is an implementation detail: changing it must not change a
// byte.
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
	// Temporal references: the decompressed previous frame of an ocean
	// sequence, and the reconstruction of a drifted hurricane.
	frames := datagen.OceanSequence(72, 48, 2)
	ref2D := pinReference(t, frames[0], Options{Mode: ebound.Absolute, ErrBound: 2e-2, Workers: 1})
	drifted := hurricane.Clone()
	for _, comp := range drifted.Components() {
		for i := range comp {
			comp[i] = 0.97*comp[i] + 0.01
		}
	}
	ref3D := pinReference(t, drifted, Options{Mode: ebound.Absolute, ErrBound: 5e-3, Workers: 1})
	// Forced-lossless sets that cross every slab and cut plane: hurricane
	// is one slab along z, tall holds five.
	forced := bitmap.New(hurricane.NumVertices())
	for idx := 0; idx < hurricane.NumVertices(); idx += 7 {
		forced.Set(idx)
	}
	tall := turbBox(16, 14, 40)
	tallForced := bitmap.New(tall.NumVertices())
	for idx := 0; idx < tall.NumVertices(); idx += 5 {
		tallForced.Set(idx)
	}
	tallDrifted := tall.Clone()
	for _, comp := range tallDrifted.Components() {
		for i := range comp {
			comp[i] = 0.97*comp[i] + 0.01
		}
	}
	tallRef := pinReference(t, tallDrifted, Options{Mode: ebound.Absolute, ErrBound: 1e-2, Workers: 1})
	cases := []struct {
		name     string
		f        *field.Field
		opts     Options
		stream   bool
		lossless int // in-memory cases only
		sha      string
	}{
		{name: "abs-2d", f: ocean, opts: Options{Mode: ebound.Absolute, ErrBound: 2e-2}, lossless: 62,
			sha: "4e65b960b0496d3dd145ba2685232a983d8c020ad381f3fdfc105b0aca0c9ce8"},
		{name: "rel-2d", f: ocean, opts: Options{Mode: ebound.Relative, ErrBound: 5e-2}, lossless: 61,
			sha: "fc0430981f51a82c58fefa61e8bad0705c3088a4156a3ebbd09247f0c004c41d"},
		{name: "abs-3d", f: hurricane, opts: Options{Mode: ebound.Absolute, ErrBound: 5e-3}, lossless: 278,
			sha: "20dc75d2b3956f405c2ac4dea7fe676e22da05a4570b4260d59976ecd24f9768"},
		{name: "rel-3d", f: hurricane, opts: Options{Mode: ebound.Relative, ErrBound: 5e-2}, lossless: 278,
			sha: "443f902e271c350a3913db6355dcd071155c317b4e58714bacb8d1c2f1b0cdde"},
		{name: "sos-2d", f: ocean, opts: Options{Mode: ebound.Absolute, ErrBound: 2e-2, SoS: true}, lossless: 58,
			sha: "ed8354fae2b2e276ad98b036e82ad909b43d675e3e3702e54338ad3880eca7a1"},
		{name: "sos-3d", f: hurricane, opts: Options{Mode: ebound.Relative, ErrBound: 5e-2, SoS: true}, lossless: 0,
			sha: "7bee276cdcc772f4c9dec17678ef922dd8111c9005d61b433779bf450223787d"},
		{name: "plain-2d", f: ocean, opts: Options{Mode: ebound.Absolute, ErrBound: 2e-2, Plain: true}, lossless: 0,
			sha: "31d12143c4a27e1ac7f131277f737af4fb1cbb5bdb92eaebb058864e6e09e582"},
		{name: "plain-3d", f: hurricane, opts: Options{Mode: ebound.Relative, ErrBound: 5e-2, Plain: true}, lossless: 0,
			sha: "d77c4191bfe2b14c4f6af346658818fa6ee37f93a29b368fd562ee446d6f668b"},
		{name: "ref-2d", f: frames[1], opts: Options{Mode: ebound.Absolute, ErrBound: 2e-2, Reference: ref2D}, lossless: 66,
			sha: "52346d2b2ea10d0c7de71f1b516d066e77dcdf75c8edc4b014ab3e792ead33db"},
		{name: "ref-3d", f: hurricane, opts: Options{Mode: ebound.Relative, ErrBound: 5e-2, Reference: ref3D}, lossless: 278,
			sha: "7bf94275996bf6cf8752b4458af05d2aef5f55dcda1bce3015f19f05e0b91886"},
		{name: "bitmap-3d", f: hurricane, opts: Options{Mode: ebound.Absolute, ErrBound: 5e-3, Lossless: forced}, lossless: 1064,
			sha: "042b748a2d65fc50df3535a3fdf381aa36fc4de443b5fd7a7e30d454d80c0d45"},
		{name: "bitmap-3d-slabs", f: tall, opts: Options{Mode: ebound.Absolute, ErrBound: 1e-2, Lossless: tallForced}, lossless: 1992,
			sha: "b0a9df1aad04eedd16d21281392b881dee40b913d14f28c4720639841f7cd5f6"},
		{name: "ref-3d-slabs", f: tall, opts: Options{Mode: ebound.Relative, ErrBound: 5e-2, Reference: tallRef}, lossless: 242,
			sha: "27fe311184471f449a0218c3ade8b69347b1ac81fff5694bdfd819dd727f6762"},
		{name: "interp-2d", f: ocean, opts: Options{Mode: ebound.Absolute, ErrBound: 2e-2, Predictor: PredictorInterpolation}, lossless: 62,
			sha: "22f85ddc4e94a645f7092d5d729d72a23c1102024b00416a0a5b8630113a76af"},
		{name: "interp-3d", f: hurricane, opts: Options{Mode: ebound.Relative, ErrBound: 5e-2, Predictor: PredictorInterpolation}, lossless: 278,
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
				var dec *field.Field
				if tc.opts.Reference != nil {
					dec, err = DecompressRef(archive, 2, tc.opts.Reference)
				} else {
					dec, err = Decompress(archive, 2)
				}
				if err != nil {
					t.Fatal(err)
				}
				fieldsEqual(t, res.Decompressed, dec)
				if got := res.LosslessVertices.Count(); got != tc.lossless {
					t.Errorf("%d lossless vertices, want %d", got, tc.lossless)
				}
			}
			sum := sha256.Sum256(archive)
			if hex.EncodeToString(sum[:]) != tc.sha {
				t.Errorf("archive (%d bytes) has SHA-256 %x, want %s", len(archive), sum, tc.sha)
			}
		})
	}
}

// pinReference returns the reconstruction of f under opts, the stand-in
// for a sequence's decompressed previous frame.
func pinReference(t *testing.T, f *field.Field, opts Options) *field.Field {
	t.Helper()
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Decompressed
}
