package cpsz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strconv"
	"testing"

	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/huffman"
	"tspsz/internal/parallel"
	"tspsz/internal/streamerr"
)

// deflate DEFLATE-compresses data into a fresh slice, for test writers
// that hand-build sections.
func deflate(data []byte) ([]byte, error) {
	s := getScratch()
	out, err := s.deflate(nil, data)
	putScratch(s)
	return out, err
}

func fieldsEqual(t *testing.T, a, b *field.Field) {
	t.Helper()
	if a.Dim() != b.Dim() || a.NumVertices() != b.NumVertices() {
		t.Fatal("field shapes differ")
	}
	for c, comp := range a.Components() {
		other := b.Components()[c]
		for i := range comp {
			if comp[i] != other[i] {
				t.Fatalf("component %d vertex %d: %v != %v", c, i, comp[i], other[i])
			}
		}
	}
}

// TestV4DeterministicAcrossWorkerCounts pins the headline invariant of the
// chunked entropy back-end: archive bytes — including every per-chunk mode
// decision — are identical for every worker count, and every worker count
// decodes every archive identically. The field is large enough that each
// symbol section spans multiple chunks.
func TestV4DeterministicAcrossWorkerCounts(t *testing.T) {
	f := gyre2D(256, 192) // 49152 vertices -> quant section > 2 chunks
	var ref []byte
	var want *field.Field
	for _, workers := range []int{1, 2, 4, 8} {
		opts := Options{Mode: ebound.Absolute, ErrBound: 0.005, Workers: workers}
		res, err := Compress(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bytes[4] != formatVersion {
			t.Fatalf("writer emitted version %d, want %d", res.Bytes[4], formatVersion)
		}
		dec, err := Decompress(res.Bytes, workers)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, want = res.Bytes, dec
			continue
		}
		if !bytes.Equal(ref, res.Bytes) {
			t.Fatalf("archive bytes differ between workers=1 and workers=%d", workers)
		}
		fieldsEqual(t, want, dec)
	}
}

// buildSymbolSection mirrors the section writer but lets the test tamper
// with the chunk directory before it is written, to model corrupt or
// adversarial archives. The layout byte selects the directory columns:
// formatVersion writes the v4 directory, while the retired layouts, which
// no reader accepts, drop the mode column (v3) and the CRC column too (v2).
// Every chunk is written in Huffman mode; the modes slice passed to tamper
// lets a lie claim otherwise.
func buildSymbolSection(t testing.TB, syms []uint32, layout byte, tamper func(cc *uint64, usizes, csizes []uint64, crcs []uint32, modes []byte)) []byte {
	t.Helper()
	table := huffman.BuildTable(syms)
	bounds := parallel.Ranges(len(syms), chunkCount(len(syms), chunkSymbols))
	usizes := make([]uint64, len(bounds))
	csizes := make([]uint64, len(bounds))
	crcs := make([]uint32, len(bounds))
	modes := make([]byte, len(bounds))
	var payload []byte
	for i, b := range bounds {
		bits := table.EncodeChunk(nil, syms[b[0]:b[1]])
		packed, err := deflate(bits)
		if err != nil {
			t.Fatal(err)
		}
		usizes[i] = uint64(len(bits))
		csizes[i] = uint64(len(packed))
		crcs[i] = crc32.Checksum(packed, crcTable)
		payload = append(payload, packed...)
	}
	cc := uint64(len(bounds))
	if tamper != nil {
		tamper(&cc, usizes, csizes, crcs, modes)
	}
	out := binary.AppendUvarint(nil, uint64(len(syms)))
	out = table.AppendTable(out)
	out = binary.AppendUvarint(out, cc)
	for i := range usizes {
		out = binary.AppendUvarint(out, usizes[i])
		out = binary.AppendUvarint(out, csizes[i])
		if layout >= formatVersion {
			out = append(out, modes[i])
		}
		if layout >= 3 {
			out = binary.LittleEndian.AppendUint32(out, crcs[i])
		}
	}
	return append(out, payload...)
}

func manySyms(n int) []uint32 {
	syms := make([]uint32, n)
	for i := range syms {
		syms[i] = uint32(i*2654435761) % 97 // deterministic, multi-chunk alphabet
	}
	return syms
}

// sealedSymbolSection writes syms as one symbol section through the
// archive's section writer, as a single held region, at two workers.
func sealedSymbolSection(t testing.TB, syms []uint32) []byte {
	t.Helper()
	table := huffman.BuildTable(syms)
	var buf bytes.Buffer
	held := heldStreams{{ebSyms: syms}}
	if err := sealSection(nil, &crcCountWriter{w: &buf}, len(syms), chunkSymbols, 4, table, 2, true,
		func(r int) ([]uint32, error) { return held.syms(0, r) },
		func(chunk []uint32) (encChunk, error) { return encodeSymChunk(table, chunk) }, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sealedRawSection is sealedSymbolSection for the raw section.
func sealedRawSection(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	held := heldStreams{{raw: raw}}
	if err := sealSection(nil, &crcCountWriter{w: &buf}, len(raw), chunkRawBytes, 1, nil, 2, true, held.raw, encodeRawChunk, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyArchive frames a symbol section built in a retired directory
// layout (v2 or v3) as an archive of that version: the unsealed fixed
// header for v2; for v3 the sealed header and the whole-stream trailer.
// The section is the eb section; the quant and raw sections are empty.
func legacyArchive(layout byte, sec []byte) []byte {
	out := appendHeader(nil, header{dim: 2, nx: 2, ny: 2, errBound: 0.01})[:headerBytes]
	out[4] = layout
	if layout >= 3 {
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
	}
	out = append(out, sec...)
	out = append(out, 0, 0) // empty quant and raw sections
	if layout >= 3 {
		out = refAppendTrailer(out)
	}
	return out
}

// wantVersionRefused asserts that strict decode, the checksum scan and
// salvage all refuse data with ErrVersion alone.
func wantVersionRefused(t *testing.T, data []byte) {
	t.Helper()
	if _, err := Decompress(data, 1); !errors.Is(err, streamerr.ErrVersion) {
		t.Errorf("version %d: Decompress got %v, want ErrVersion", data[4], err)
	}
	if fails := VerifyAll(data); len(fails) != 1 || !errors.Is(fails[0], streamerr.ErrVersion) {
		t.Errorf("version %d: VerifyAll got %v, want one ErrVersion", data[4], fails)
	}
	if _, _, err := Salvage(data, 1); !errors.Is(err, streamerr.ErrVersion) {
		t.Errorf("version %d: Salvage got %v, want ErrVersion", data[4], err)
	}
}

// TestChunkDirectoryLies drives the section reader with directories that
// lie about chunk counts, sizes, checksums, and modes: every lie must
// surface as a streamerr-typed error — never a panic, hang, or silent
// mis-decode. The lies also run in the retired v2 (CRC-less) and v3
// (mode-less) directory layouts: the section reader, handed such a
// directory, must still answer with a typed error, and an archive of that
// version carrying it must be refused with ErrVersion by decode, the
// checksum scan and salvage alike, before any directory byte is read.
func TestChunkDirectoryLies(t *testing.T) {
	syms := manySyms(3*chunkSymbols + 1000) // 4 chunks
	lies := []struct {
		name      string
		minLayout byte
		tamper    func(cc *uint64, usizes, csizes []uint64, crcs []uint32, modes []byte)
	}{
		{"chunk-count-zero", 2, func(cc *uint64, _, _ []uint64, _ []uint32, _ []byte) { *cc = 0 }},
		{"chunk-count-low", 2, func(cc *uint64, _, _ []uint64, _ []uint32, _ []byte) { *cc = 1 }},
		{"chunk-count-high", 2, func(cc *uint64, _, _ []uint64, _ []uint32, _ []byte) { *cc = 9 }},
		{"chunk-count-huge", 2, func(cc *uint64, _, _ []uint64, _ []uint32, _ []byte) { *cc = 1 << 40 }},
		{"usize-zero", 2, func(_ *uint64, usizes, _ []uint64, _ []uint32, _ []byte) { usizes[0] = 0 }},
		{"usize-short", 2, func(_ *uint64, usizes, _ []uint64, _ []uint32, _ []byte) { usizes[1]-- }},
		{"usize-long", 2, func(_ *uint64, usizes, _ []uint64, _ []uint32, _ []byte) { usizes[1]++ }},
		{"usize-bomb", 2, func(_ *uint64, usizes, _ []uint64, _ []uint32, _ []byte) { usizes[2] = 1 << 40 }},
		{"csize-overlap", 2, func(_ *uint64, _, csizes []uint64, _ []uint32, _ []byte) { csizes[0]++ }}, // chunk 1 starts inside chunk 0
		{"csize-short", 2, func(_ *uint64, _, csizes []uint64, _ []uint32, _ []byte) { csizes[2]-- }},
		{"csize-huge", 2, func(_ *uint64, _, csizes []uint64, _ []uint32, _ []byte) { csizes[3] = 1 << 40 }},
		{"crc-flip", 3, func(_ *uint64, _, _ []uint64, crcs []uint32, _ []byte) { crcs[1] ^= 1 }},
		{"crc-zero", 3, func(_ *uint64, _, _ []uint64, crcs []uint32, _ []byte) { crcs[3] = 0 }},
		{"mode-unknown", formatVersion, func(_ *uint64, _, _ []uint64, _ []uint32, modes []byte) { modes[1] = maxChunkMode + 1 }},
		{"mode-flip-to-packed", formatVersion, func(_ *uint64, _, _ []uint64, _ []uint32, modes []byte) { modes[0] = symChunkPacked }},
	}
	for _, layout := range []byte{2, 3, formatVersion} {
		for _, lie := range lies {
			if lie.minLayout > layout {
				continue
			}
			t.Run("v"+strconv.Itoa(int(layout))+"/"+lie.name, func(t *testing.T) {
				sec := buildSymbolSection(t, syms, layout, lie.tamper)
				_, _, _, err := parseSection(nil, sec, 0, 0, 2, nil)
				if err == nil {
					t.Fatal("lying directory parsed without error")
				}
				if !errors.Is(err, streamerr.ErrCorrupt) && !errors.Is(err, streamerr.ErrTruncated) {
					t.Fatalf("lie surfaced as untyped error: %v", err)
				}
				if layout != formatVersion {
					wantVersionRefused(t, legacyArchive(layout, sec))
				}
			})
		}
	}
	// Control: the untampered section round-trips.
	sec := buildSymbolSection(t, syms, formatVersion, nil)
	got, _, off, err := parseSection(nil, sec, 0, 0, 2, nil)
	if err != nil {
		t.Fatalf("untampered section: %v", err)
	}
	if off != len(sec) {
		t.Fatalf("consumed %d of %d bytes", off, len(sec))
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, got[i], syms[i])
		}
	}
}

// TestTruncatedDirectory cuts a multi-chunk section at every byte
// boundary inside its directory; every prefix must error.
func TestTruncatedDirectory(t *testing.T) {
	syms := manySyms(2*chunkSymbols + 10)
	sec := buildSymbolSection(t, syms, formatVersion, nil)
	// The directory sits between the codebook and the payload; cutting
	// anywhere before the payload end must fail.
	for cut := 0; cut < len(sec); cut += 7 {
		if _, _, _, err := parseSection(nil, sec[:cut], 0, 0, 1, nil); err == nil {
			t.Fatalf("section truncated to %d of %d bytes parsed", cut, len(sec))
		}
	}
}

// TestRejectsTrailingBytes: archives are exact — trailing junk after the
// final section is corruption, not padding.
func TestRejectsTrailingBytes(t *testing.T) {
	res, err := Compress(gyre2D(16, 12), Options{Mode: ebound.Absolute, ErrBound: 0.05, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(append(append([]byte{}, res.Bytes...), 0xAB), 1); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestHeaderCRC: any damage to the fixed header or its stored CRC is
// reported as corruption, not decoded on faith.
func TestHeaderCRC(t *testing.T) {
	res, err := Compress(gyre2D(24, 20), Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, flip := range []int{5, 6, 7, 8, 20, headerBytes, headerBytes + 3} {
		bad := append([]byte{}, res.Bytes...)
		bad[flip] ^= 0x10
		_, err := Decompress(bad, 1)
		if err == nil {
			t.Fatalf("header byte %d flipped, decode succeeded", flip)
		}
		if !errors.Is(err, streamerr.ErrCorrupt) {
			t.Fatalf("header byte %d: got %v, want ErrCorrupt", flip, err)
		}
	}
}

// TestTrailerLies: the trailer's declared payload length and stream CRC
// are both load-bearing.
func TestTrailerLies(t *testing.T) {
	res, err := Compress(gyre2D(24, 20), Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plenOff := len(res.Bytes) - trailerBytes

	over := append([]byte{}, res.Bytes...)
	binary.LittleEndian.PutUint64(over[plenOff:], uint64(plenOff+1))
	if _, err := Decompress(over, 1); !errors.Is(err, streamerr.ErrTruncated) {
		t.Fatalf("over-declaring trailer: got %v, want ErrTruncated", err)
	}

	under := append([]byte{}, res.Bytes...)
	binary.LittleEndian.PutUint64(under[plenOff:], uint64(plenOff-1))
	if _, err := Decompress(under, 1); !errors.Is(err, streamerr.ErrCorrupt) {
		t.Fatalf("under-declaring trailer: got %v, want ErrCorrupt", err)
	}

	badCRC := append([]byte{}, res.Bytes...)
	badCRC[len(badCRC)-1] ^= 0xFF
	if _, err := Decompress(badCRC, 1); !errors.Is(err, streamerr.ErrCorrupt) {
		t.Fatalf("flipped stream CRC: got %v, want ErrCorrupt", err)
	}

	if _, err := Decompress(res.Bytes[:len(res.Bytes)-5], 1); !errors.Is(err, streamerr.ErrTruncated) && !errors.Is(err, streamerr.ErrCorrupt) {
		t.Fatalf("missing trailer bytes: untyped error %v", err)
	}
}

// TestVerify: the checksum scan accepts intact archives, pinpoints payload
// damage without decoding, and refuses every version byte but the current
// one with ErrVersion — through strict decode, the scan and salvage alike.
func TestVerify(t *testing.T) {
	f := gyre2D(64, 48)
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 2}
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fails := VerifyAll(res.Bytes); len(fails) != 0 {
		t.Fatalf("intact archive failed verification: %v", fails)
	}
	// Flip one payload byte past the header: either a chunk CRC or the
	// stream CRC must catch it.
	bad := append([]byte{}, res.Bytes...)
	bad[len(bad)/2] ^= 0x40
	if fails := VerifyAll(bad); len(fails) == 0 || !errors.Is(fails[0], streamerr.ErrCorrupt) {
		t.Fatalf("flipped payload byte: got %v, want ErrCorrupt first", fails)
	}
	for _, v := range []byte{1, 2, 3, 5} {
		old := append([]byte{}, res.Bytes...)
		old[4] = v
		wantVersionRefused(t, old)
	}
	if fails := VerifyAll(nil); len(fails) != 1 || !errors.Is(fails[0], streamerr.ErrTruncated) {
		t.Fatalf("empty input: got %v, want ErrTruncated", fails)
	}
}

// TestV4ChunkModes pins the writer's per-chunk mode decision and both
// decode paths: a near-uniform alphabet (where Huffman cannot beat raw
// k-bit fields by the required margin) goes bit-packed, a skewed wide-range
// alphabet stays Huffman, incompressible raw bytes are stored verbatim, and
// compressible raw bytes stay DEFLATE — and every one of them round-trips.
func TestV4ChunkModes(t *testing.T) {
	readModes := func(t *testing.T, sec []byte, count, si int) []byte {
		t.Helper()
		s := getScratch()
		defer putScratch(s)
		rs, _, err := readSection(s, sec, 0, si)
		if err != nil {
			t.Fatal(err)
		}
		if rs.n != count {
			t.Fatalf("section count %d, want %d", rs.n, count)
		}
		return append([]byte{}, rs.modes...)
	}

	// Near-uniform 64-symbol alphabet: Huffman ~6 bits/symbol vs k=6
	// packing — inside the 5% margin, so chunks pack.
	uniform := make([]uint32, chunkSymbols+1000)
	for i := range uniform {
		uniform[i] = uint32(i % 64)
	}
	// Skewed alphabet with one wide outlier per 64 symbols: Huffman ~1
	// bit/symbol against k=20 packing, so chunks stay Huffman.
	skewed := make([]uint32, chunkSymbols+1000)
	for i := range skewed {
		if i%64 == 0 {
			skewed[i] = 1 << 19
		}
	}
	for _, tc := range []struct {
		name string
		syms []uint32
		mode byte
	}{
		{"packed", uniform, symChunkPacked},
		{"huffman", skewed, symChunkHuffman},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sec := sealedSymbolSection(t, tc.syms)
			for i, m := range readModes(t, sec, len(tc.syms), 0) {
				if m != tc.mode {
					t.Fatalf("chunk %d wrote mode %d, want %d", i, m, tc.mode)
				}
			}
			got, _, off, err := parseSection(nil, sec, 0, 0, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if off != len(sec) {
				t.Fatalf("consumed %d of %d bytes", off, len(sec))
			}
			for i := range tc.syms {
				if got[i] != tc.syms[i] {
					t.Fatalf("symbol %d: got %d, want %d", i, got[i], tc.syms[i])
				}
			}
		})
	}

	// Raw bytes: an incompressible pattern forces stored mode, zeros stay
	// DEFLATE.
	noise := make([]byte, chunkRawBytes/4)
	seed := uint32(0x9E3779B9)
	for i := range noise {
		seed = seed*1664525 + 1013904223
		noise[i] = byte(seed >> 24)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		mode byte
	}{
		{"stored", noise, rawChunkStored},
		{"deflate", make([]byte, chunkRawBytes/4), rawChunkDeflate},
	} {
		t.Run("raw-"+tc.name, func(t *testing.T) {
			sec := sealedRawSection(t, tc.raw)
			for i, m := range readModes(t, sec, len(tc.raw), 2) {
				if m != tc.mode {
					t.Fatalf("chunk %d wrote mode %d, want %d", i, m, tc.mode)
				}
			}
			_, got, off, err := parseSection(nil, sec, 0, 2, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if off != len(sec) {
				t.Fatalf("consumed %d of %d bytes", off, len(sec))
			}
			if !bytes.Equal(got, tc.raw) {
				t.Fatal("raw section did not round-trip")
			}
		})
	}
}

// TestPackedChunkLies drives decodePackedChunk with adversarial payloads:
// every malformed header or mis-sized body must surface as ErrCorrupt,
// never a panic or silent mis-decode. These payloads pass any CRC check by
// construction (the CRC would be computed over the lying bytes), so the
// structural validation is the only defense.
func TestPackedChunkLies(t *testing.T) {
	out := make([]uint32, 8)
	hdr := func(base uint64, k byte) []byte {
		return append(binary.AppendUvarint(nil, base), k)
	}
	for _, tc := range []struct {
		name string
		pl   []byte
	}{
		{"empty", nil},
		{"cut-base-uvarint", []byte{0x80}},
		{"missing-width", binary.AppendUvarint(nil, 3)},
		{"width-over-32", append(hdr(0, 33), make([]byte, 33)...)},
		{"base-overflow", hdr(1<<33, 0)},
		{"k0-trailing-byte", append(hdr(5, 0), 0xFF)},
		{"payload-short", append(hdr(0, 8), 1, 2, 3)},
		{"payload-long", append(hdr(0, 8), make([]byte, 9)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := decodePackedChunk(tc.pl, out, "test", 0); !errors.Is(err, streamerr.ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
	// Control: a well-formed payload decodes to base+field.
	want := []uint32{7, 8, 9, 10, 14, 13, 12, 11}
	pl := huffman.AppendPacked(hdr(7, 3), want, 7, 3)
	if err := decodePackedChunk(pl, out, "test", 0); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, out[i], want[i])
		}
	}
}

// entropyFixture compresses a field large enough that every section spans
// many chunks, and returns the pieces the sealer and parse operate on.
func entropyFixture(b *testing.B) (*field.Field, Options, []uint32, []uint32, []byte, []byte) {
	b.Helper()
	f := gyre2D(512, 512)
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.001}
	res, err := Compress(f, opts)
	if err != nil {
		b.Fatal(err)
	}
	_, ebSyms, quantSyms, raw, err := parse(nil, res.Bytes, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	return f, opts, ebSyms, quantSyms, raw, res.Bytes
}

// BenchmarkSerialize measures the entropy-coding stage of compression
// (shared-codebook build from the section histograms, chunked Huffman,
// chunked DEFLATE, the header/sections/trailer write-out) in isolation
// across worker counts, on the streams of the whole field held as one
// region. The section histograms are the sweep's output — it observes each
// region as the region is emitted — so they are gathered before the timer.
func BenchmarkSerialize(b *testing.B) {
	f, opts, ebSyms, quantSyms, raw, stream := entropyFixture(b)
	held := heldStreams{{ebSyms: ebSyms, quantSyms: quantSyms, raw: raw}}
	var tot sectionTotals
	tot.observe(held[0])
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			o := opts
			o.Workers = workers
			var res *Result
			b.SetBytes(int64(f.SizeBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = sealResult(nil, f, o, &tot, held, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !bytes.Equal(res.Bytes, stream) {
				b.Fatal("sealed archive differs from Compress's")
			}
		})
	}
}

// BenchmarkParse measures the entropy-decoding stage of decompression
// (chunked inflate + chunked Huffman decode) in isolation across worker
// counts.
func BenchmarkParse(b *testing.B) {
	f, _, _, _, _, stream := entropyFixture(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.SetBytes(int64(f.SizeBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, _, err := parse(nil, stream, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
