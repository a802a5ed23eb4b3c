package cpsz

// The pre-engine in-memory encoder, kept as a test-only oracle: the whole
// field is cloned, slab interiors and then boundary planes run through
// the raster region kernel (refCompressRegion, each region in one
// row-major sweep) with parallel.For, the region streams are concatenated,
// and the batch section encoders (one parallel.For over chunk slices, a
// parallel merge into one grown buffer) serialize them. Compress must
// match it byte for byte; FuzzCompressEngine and the differentials below
// hold it there.

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"tspsz/internal/bitmap"
	"tspsz/internal/datagen"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/huffman"
	"tspsz/internal/parallel"
	"tspsz/internal/quantizer"
)

// refCompress is the reference Lorenzo-path encoder.
func refCompress(ctx context.Context, f *field.Field, opts Options) (*Result, error) {
	work := f.Clone()
	interiors, boundaries := partition(f.Grid)
	nRegions := len(interiors) + len(boundaries)
	streams := make([]regionStreams, nRegions)
	lossless := bitmap.New(f.NumVertices())
	regionOf := func(r region) *preparedRegion {
		return &preparedRegion{local: f, ref: opts.Reference, r: r}
	}

	// Stage 1: slab interiors in parallel. Bound derivation may read
	// boundary-plane vertices, which still hold original values; no other
	// interior is reachable through any adjacent cell. Stage 2: boundary
	// planes, whose adjacent cells reach only finalized interiors.
	if err := parallel.For(ctx, len(interiors), opts.Workers, 1, func(i int) error {
		refCompressRegion(regionOf(interiors[i]), work, &opts, &streams[i])
		return nil
	}); err != nil {
		return nil, err
	}
	if err := parallel.For(ctx, len(boundaries), opts.Workers, 1, func(i int) error {
		refCompressRegion(regionOf(boundaries[i]), work, &opts, &streams[len(interiors)+i])
		return nil
	}); err != nil {
		return nil, err
	}

	var ebAll, qAll []uint32
	var rawAll []byte
	for i := range streams {
		ebAll = append(ebAll, streams[i].ebSyms...)
		qAll = append(qAll, streams[i].quantSyms...)
		rawAll = append(rawAll, streams[i].raw...)
		for _, idx := range streams[i].marks {
			lossless.Set(idx)
		}
	}
	out, err := refSerialize(ctx, f, opts, ebAll, qAll, rawAll)
	if err != nil {
		return nil, err
	}
	return &Result{Bytes: out, Decompressed: work, LosslessVertices: lossless}, nil
}

// refCompressRegion is the raster region kernel the engine replaced with
// tile waves, kept verbatim: it processes one region's vertices in
// row-major order, deriving bounds from the current working field,
// quantizing residuals against region-confined Lorenzo predictions (or
// the reference frame), and overwriting work with the decompressed values
// (Algorithm 1, line 11). p.local holds the original values and work the
// working values of the region's planes plus the neighbor planes its
// cells reach; p.gid translates local vertex ids to global ones, at which
// the forced-lossless bitmap is read and fully lossless vertices are
// recorded in out.marks.
func refCompressRegion(p *preparedRegion, work *field.Field, opts *Options, out *regionStreams) {
	r := p.r
	nx, ny, _ := p.local.Grid.Dims()
	nxny := nx * ny
	first := r.lo[0] + r.lo[1]*nx + r.lo[2]*nxny // the region's first local vertex
	comps := p.local.Components()
	workComps := work.Components()
	var refComps [][]float32
	if p.ref != nil {
		refComps = p.ref.Components()
	}
	refOf := func(c int) []float32 {
		if refComps == nil {
			return nil
		}
		return refComps[c]
	}
	radius := int32(quantizer.DefaultRadius)

	for k := r.lo[2]; k < r.hi[2]; k++ {
		for j := r.lo[1]; j < r.hi[1]; j++ {
			for i := r.lo[0]; i < r.hi[0]; i++ {
				idx := i + j*nx + k*nxny
				forced := opts.Lossless != nil && opts.Lossless.Get(p.gid+idx)
				storeLossless := forced
				var derived float64
				if !storeLossless {
					switch {
					case p.bounds != nil:
						if b := p.bounds[idx-first]; b < 0 {
							storeLossless = true
						} else {
							derived = b
						}
					case opts.Plain:
						derived = math.Inf(1)
					case opts.SoS:
						derived = ebound.VertexBoundSoS(work, idx, opts.Mode)
					default:
						if eb, hasCP := ebound.VertexBound(work, idx, opts.Mode); hasCP {
							storeLossless = true
						} else {
							derived = eb
						}
					}
				}
				if opts.Mode == ebound.Absolute {
					if !storeLossless {
						target := math.Min(opts.ErrBound, derived)
						sym, aeb := absSymbol(opts.ErrBound, target)
						if sym == absLosslessSym {
							storeLossless = true
						} else {
							out.ebSyms = append(out.ebSyms, sym)
							for c, vals := range comps {
								quantizeOne(out, workComps[c], vals, refOf(c), nx, nxny, i, j, k, idx, r.lo, aeb, radius)
							}
						}
					}
					if storeLossless {
						out.ebSyms = append(out.ebSyms, absLosslessSym)
						for c, vals := range comps {
							out.rawFloat(vals[idx])
							workComps[c][idx] = vals[idx]
						}
						out.marks = append(out.marks, p.gid+idx)
					}
					continue
				}
				// Relative mode: per-component symbols.
				if storeLossless {
					for c, vals := range comps {
						out.ebSyms = append(out.ebSyms, relExactSym)
						out.rawFloat(vals[idx])
						workComps[c][idx] = vals[idx]
					}
					out.marks = append(out.marks, p.gid+idx)
					continue
				}
				xi := math.Min(opts.ErrBound, derived)
				allExact := true
				for c, vals := range comps {
					target := xi * math.Abs(float64(vals[idx]))
					sym, aeb := relSymbol(target)
					out.ebSyms = append(out.ebSyms, sym)
					if sym == relExactSym {
						out.rawFloat(vals[idx])
						workComps[c][idx] = vals[idx]
						continue
					}
					allExact = false
					quantizeOne(out, workComps[c], vals, refOf(c), nx, nxny, i, j, k, idx, r.lo, aeb, radius)
				}
				if allExact {
					out.marks = append(out.marks, p.gid+idx)
				}
			}
		}
	}
}

// refSerialize assembles the stream from whole-section symbol slices.
func refSerialize(ctx context.Context, f *field.Field, opts Options, ebSyms, quantSyms []uint32, raw []byte) ([]byte, error) {
	workers := parallel.Workers(opts.Workers)
	nx, ny, nz := f.Grid.Dims()
	out := appendHeader(nil, header{
		dim: f.Dim(), nx: nx, ny: ny, nz: nz, mode: opts.Mode, predictor: opts.Predictor,
		temporal: opts.Reference != nil, errBound: opts.ErrBound,
	})
	var err error
	for _, syms := range [][]uint32{ebSyms, quantSyms} {
		if out, err = refAppendSymbolSection(ctx, out, syms, workers); err != nil {
			return nil, err
		}
	}
	if out, err = refAppendRawSection(ctx, out, raw, workers); err != nil {
		return nil, err
	}
	return refAppendTrailer(out), nil
}

// refAppendTrailer seals the stream: u64 length of everything before the
// trailer, then the CRC32C of all preceding bytes.
func refAppendTrailer(out []byte) []byte {
	out = binary.LittleEndian.AppendUint64(out, uint64(len(out)))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// refAppendSymbolSection writes one symbol section from the whole symbol
// slice: count, codebook, directory, payloads.
func refAppendSymbolSection(ctx context.Context, dst []byte, syms []uint32, workers int) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(syms)))
	if len(syms) == 0 {
		return dst, nil
	}
	table := huffman.BuildTable(syms)
	dst = table.AppendTable(dst)
	n := len(syms)
	cc := chunkCount(n, chunkSymbols)
	workers = parallel.SizedWorkers(workers, cc, 4*int64(n), entropyWorkerBytes)
	outs := make([]encChunk, cc)
	err := parallel.For(ctx, cc, workers, 1, func(i int) error {
		lo, hi := chunkBound(n, cc, i)
		e, err := encodeSymChunk(table, syms[lo:hi])
		if err != nil {
			return err
		}
		outs[i] = e
		return nil
	})
	if err != nil {
		repoolChunks(outs)
		return nil, err
	}
	return refMergeChunks(dst, outs, workers)
}

// refAppendRawSection writes the verbatim-float section.
func refAppendRawSection(ctx context.Context, dst []byte, raw []byte, workers int) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(raw)))
	if len(raw) == 0 {
		return dst, nil
	}
	n := len(raw)
	cc := chunkCount(n, chunkRawBytes)
	workers = parallel.SizedWorkers(workers, cc, int64(n), entropyWorkerBytes)
	outs := make([]encChunk, cc)
	err := parallel.For(ctx, cc, workers, 1, func(i int) error {
		lo, hi := chunkBound(n, cc, i)
		e, err := encodeRawChunk(raw[lo:hi])
		if err != nil {
			return err
		}
		outs[i] = e
		return nil
	})
	if err != nil {
		repoolChunks(outs)
		return nil, err
	}
	return refMergeChunks(dst, outs, workers)
}

// refMergeChunks appends the chunk directory, then copies every payload
// into its prefix-sum extent of one grown region, concurrently, and
// re-pools the payload buffers.
func refMergeChunks(dst []byte, outs []encChunk, workers int) ([]byte, error) {
	dst = appendChunkDirectory(dst, outs)
	offs := make([]int, len(outs))
	total := 0
	for i := range outs {
		offs[i] = total
		total += len(outs[i].payload)
	}
	dst = append(dst, make([]byte, total)...)
	payload := dst[len(dst)-total:]
	err := parallel.For(nil, len(outs), workers, 1, func(i int) error {
		copy(payload[offs[i]:offs[i]+len(outs[i].payload)], outs[i].payload)
		return nil
	})
	repoolChunks(outs)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// TestEngineMatchesReference holds Compress to refCompress on the pinned
// fields across every input the engine carries, at several worker counts.
// The many-slab fields give every region one worker; the one-slab fields
// (a 32×32×8 hurricane window, a 64×12 ocean strip) are single regions,
// which at workers > 1 run their tiles in waves.
func TestEngineMatchesReference(t *testing.T) {
	ocean := datagen.Ocean(64, 96) // 2D: many row slabs
	hurricane := datagen.Hurricane(16, 12, 40)
	forced := bitmap.New(hurricane.NumVertices())
	for idx := 0; idx < hurricane.NumVertices(); idx += 5 {
		forced.Set(idx)
	}
	window := datagen.Hurricane(32, 32, 8) // one slab
	windowForced := bitmap.New(window.NumVertices())
	for idx := 0; idx < window.NumVertices(); idx += 7 {
		windowForced.Set(idx)
	}
	strip := datagen.Ocean(64, 12) // one row slab
	shifted := func(f *field.Field) *field.Field {
		g := f.Clone()
		for _, comp := range g.Components() {
			for i := range comp {
				comp[i] = 0.98*comp[i] + 1e-3
			}
		}
		return g
	}
	cases := []struct {
		name string
		f    *field.Field
		opts Options
	}{
		{"abs-2d", ocean, Options{Mode: ebound.Absolute, ErrBound: 1e-2}},
		{"rel-2d-sos", ocean, Options{Mode: ebound.Relative, ErrBound: 5e-2, SoS: true}},
		{"plain-2d-ref", ocean, Options{Mode: ebound.Absolute, ErrBound: 1e-2, Plain: true, Reference: shifted(ocean)}},
		{"abs-3d-bitmap", hurricane, Options{Mode: ebound.Absolute, ErrBound: 5e-3, Lossless: forced}},
		{"rel-3d-ref", hurricane, Options{Mode: ebound.Relative, ErrBound: 5e-2, Reference: shifted(hurricane)}},
		{"abs-3d-window-bitmap", window, Options{Mode: ebound.Absolute, ErrBound: 5e-3, Lossless: windowForced}},
		{"rel-3d-window-ref", window, Options{Mode: ebound.Relative, ErrBound: 5e-2, Reference: shifted(window)}},
		{"abs-2d-strip", strip, Options{Mode: ebound.Absolute, ErrBound: 1e-2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := refCompress(nil, tc.f, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				opts := tc.opts
				opts.Workers = workers
				got, err := Compress(tc.f, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes, want.Bytes) {
					t.Fatalf("workers=%d: archive (%d bytes) differs from the reference (%d bytes)", workers, len(got.Bytes), len(want.Bytes))
				}
				fieldsEqual(t, got.Decompressed, want.Decompressed)
				if !bytes.Equal(marshalBitmap(t, got.LosslessVertices), marshalBitmap(t, want.LosslessVertices)) {
					t.Fatalf("workers=%d: lossless set differs from the reference", workers)
				}
			}
		})
	}
}

func marshalBitmap(t testing.TB, b *bitmap.Bitmap) []byte {
	t.Helper()
	out, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// engineCase decodes one fuzz input into a field and options. Byte 0 is a
// flag set (3D, absolute mode, SoS, Plain, forced-lossless bitmap,
// temporal reference, constant field, tie-heavy field); bytes 1–3 the
// extents, 2–12 across the partition axis and 2–40 along it, so slabs and
// cut planes occur; byte 4 the error bound. The remaining bytes pick the
// values: a smooth field with byte-driven noise, NaN, +Inf and -Inf, or,
// with the tie-heavy flag, one of the fields of tieValue.
func engineCase(data []byte) (*field.Field, Options, bool) {
	if len(data) < 6 {
		return nil, Options{}, false
	}
	flags, vals := data[0], data[5:]
	extent := func(b byte, hi int) int { return 2 + int(b)%(hi-1) }
	nx, ny, n := extent(data[1], 12), extent(data[2], 12), extent(data[3], 40)
	var f *field.Field
	if flags&1 == 0 {
		f = field.New2D(nx, n)
	} else {
		f = field.New3D(nx, ny, n)
	}
	opts := Options{Mode: ebound.Relative, ErrBound: math.Ldexp(1, -int(data[4]%24)), SoS: flags&4 != 0, Plain: flags&8 != 0}
	if flags&2 != 0 {
		opts.Mode = ebound.Absolute
	}
	value := func(i, c int, scale float64) float32 {
		b := vals[(3*i+c)%len(vals)]
		if flags&64 != 0 {
			b = vals[0]
		}
		switch b % 32 {
		case 0:
			return float32(math.NaN())
		case 1:
			return float32(math.Inf(1))
		case 2:
			return float32(math.Inf(-1))
		}
		if flags&64 != 0 {
			return float32(b) / 16
		}
		p := f.Grid.VertexPosition(i)
		smooth := math.Sin(0.7*p[0]+float64(c)) * math.Cos(0.5*p[1]-0.3*p[2])
		return float32(scale * (smooth + (float64(b)/255-0.5)/4))
	}
	if flags&128 != 0 && flags&64 == 0 {
		value = func(i, c int, scale float64) float32 {
			return tieValue(f, vals, i, c, scale)
		}
	}
	for c, comp := range f.Components() {
		for i := range comp {
			comp[i] = value(i, c, 1)
		}
	}
	if flags&16 != 0 {
		opts.Lossless = bitmap.New(f.NumVertices())
		for i := 0; i < f.NumVertices(); i++ {
			if vals[(7*i)%len(vals)]&4 != 0 {
				opts.Lossless.Set(i)
			}
		}
	}
	if flags&32 != 0 {
		ref := f.Clone()
		for c, comp := range ref.Components() {
			for i := range comp {
				comp[i] = value(i+1, c, 0.9)
			}
		}
		opts.Reference = ref
	}
	return f, opts, true
}

// tieValue is the value of component c at vertex i of a tie-heavy field,
// whose exact-zero determinants and lossless runs land anywhere, tile
// borders included. vals[0] picks the kind:
//   - 0: a smooth field with byte-driven noise, rounded to a 1/8 lattice;
//   - 1: constant layers along the partition axis, one vertex perturbed;
//   - 2: the first row repeated along every other axis.
func tieValue(f *field.Field, vals []byte, i, c int, scale float64) float32 {
	x, y, z := f.Grid.VertexCoords(i)
	layer := z
	if f.Dim() == 2 {
		layer = y
	}
	eighths := func(b byte) float32 { return float32(scale) * float32(int(b)%16-8) / 8 }
	switch vals[0] % 3 {
	case 0:
		b := vals[(3*i+c)%len(vals)]
		smooth := math.Sin(0.7*float64(x)+float64(c)) * math.Cos(0.5*float64(y)-0.3*float64(z))
		return float32(math.Round(8*scale*(smooth+(float64(b)/255-0.5)/4)) / 8)
	case 1:
		v := eighths(vals[(layer+c)%len(vals)])
		if i == 7*int(vals[len(vals)-1])%f.NumVertices() {
			v += float32(c+1) / 8
		}
		return v
	default:
		return eighths(vals[(3*x+c)%len(vals)])
	}
}

// sameBits compares two fields bit for bit (NaN payloads included).
func sameBits(t *testing.T, what string, a, b *field.Field) {
	t.Helper()
	for c, comp := range a.Components() {
		other := b.Components()[c]
		for i := range comp {
			if math.Float32bits(comp[i]) != math.Float32bits(other[i]) {
				t.Fatalf("%s: component %d vertex %d: %v != %v", what, c, i, comp[i], other[i])
			}
		}
	}
}

// FuzzCompressEngine holds the engine to the reference encoder on small
// fuzzed fields: Compress at workers 1 and 3 must equal refCompress byte
// for byte with the same lossless set, its Decompressed must be what the
// decoder returns, and 3D cases without bitmap or reference (which the
// streaming path rejects) must also equal CompressStream over the field's
// layers. Shapes with fewer than 16 layers are one region, so at workers 3
// they run the tile waves; the tie-heavy fields put exact-zero
// determinants and lossless runs on tile borders.
func FuzzCompressEngine(f *testing.F) {
	f.Add([]byte{0x02, 30, 0, 33, 6, 11, 97, 180, 42})                   // 2D absolute, 5 row slabs
	f.Add([]byte{0x03, 7, 5, 39, 4, 200, 13, 77})                        // 3D absolute, cut planes
	f.Add([]byte{0x01, 4, 9, 21, 3, 5, 90, 33, 250})                     // 3D relative
	f.Add([]byte{0x13, 6, 6, 25, 5, 21, 34, 55, 89, 144})                // 3D bitmap
	f.Add([]byte{0x22, 9, 0, 30, 7, 3, 14, 15, 92, 65})                  // 2D temporal reference
	f.Add([]byte{0x07, 5, 4, 17, 2, 8, 16, 24})                          // 3D SoS
	f.Add([]byte{0x0a, 10, 0, 38, 9, 50, 60, 70})                        // 2D Plain
	f.Add([]byte{0x43, 3, 3, 12, 1, 77})                                 // constant field
	f.Add([]byte{0x03, 5, 5, 20, 6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 32, 33})  // NaN and ±Inf
	f.Add([]byte{0x3f, 6, 7, 26, 8, 1, 99, 2, 98, 0, 97, 13, 14, 15, 5}) // everything at once
	// Tie-heavy one-slab fields, whose regions run tile waves at workers 3.
	f.Add([]byte{0x83, 10, 9, 6, 4, 0, 17, 200, 33, 91, 5})   // 3D absolute, 1/8 lattice
	f.Add([]byte{0x81, 9, 11, 7, 2, 0, 250, 3, 77, 140})      // 3D relative, 1/8 lattice
	f.Add([]byte{0x83, 9, 10, 7, 5, 1, 8, 8, 9, 8, 40})       // 3D constant layers, one vertex perturbed
	f.Add([]byte{0x82, 11, 0, 9, 3, 1, 12, 3, 3, 19})         // 2D constant rows, one vertex perturbed
	f.Add([]byte{0x83, 11, 10, 5, 6, 2, 9, 200, 31, 64, 128}) // 3D repeated rows
	f.Add([]byte{0x92, 11, 0, 10, 2, 2, 5, 6, 7, 8, 9})       // 2D repeated rows with a bitmap
	f.Fuzz(func(t *testing.T, data []byte) {
		fld, opts, ok := engineCase(data)
		if !ok {
			return
		}
		if opts.SoS && opts.Plain {
			if _, err := Compress(fld, opts); err == nil {
				t.Fatal("SoS and Plain accepted together")
			}
			return
		}
		want, err := refCompress(nil, fld, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			opts.Workers = workers
			got, err := Compress(fld, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes, want.Bytes) {
				t.Fatalf("workers=%d: archive (%d bytes) differs from the reference (%d bytes)", workers, len(got.Bytes), len(want.Bytes))
			}
			if !bytes.Equal(marshalBitmap(t, got.LosslessVertices), marshalBitmap(t, want.LosslessVertices)) {
				t.Fatalf("workers=%d: lossless set differs from the reference", workers)
			}
			var dec *field.Field
			if opts.Reference != nil {
				dec, err = DecompressRef(got.Bytes, workers, opts.Reference)
			} else {
				dec, err = Decompress(got.Bytes, workers)
			}
			if err != nil {
				t.Fatalf("workers=%d: decode: %v", workers, err)
			}
			sameBits(t, "Decompressed vs decode", got.Decompressed, dec)
		}
		if fld.Dim() == 3 && opts.Lossless == nil && opts.Reference == nil && !opts.SoS {
			nx, ny, nz := fld.Grid.Dims()
			var buf bytes.Buffer
			if _, err := CompressStream(nil, &buf, nx, ny, nz, field.Layers(fld), nil, opts); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want.Bytes) {
				t.Fatalf("streamed archive (%d bytes) differs from the reference (%d bytes)", buf.Len(), len(want.Bytes))
			}
		}
	})
}
