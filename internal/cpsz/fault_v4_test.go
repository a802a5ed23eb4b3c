package cpsz

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/huffman"
	"tspsz/internal/streamerr"
)

// chunkRef locates one chunk of a v4 archive: the absolute offsets of its
// directory mode byte and payload, plus the entry values the directory
// declares for it.
type chunkRef struct {
	section string
	modeOff int // absolute offset of the directory mode byte
	payOff  int // absolute offset of the chunk payload
	csize   int
	mode    byte
}

// walkV4 indexes every chunk of a v4 archive by re-walking the section
// framing the same way the reader does, so mode-byte and payload tampering
// can target exact offsets. It fails the test if the walk does not land
// exactly on the trailer.
func walkV4(t testing.TB, data []byte) []chunkRef {
	t.Helper()
	if len(data) < sealedHeaderBytes+trailerBytes || data[4] != formatVersion {
		t.Fatalf("not a v4 archive (%d bytes)", len(data))
	}
	off := sealedHeaderBytes
	var refs []chunkRef
	for _, sec := range []struct {
		name    string
		symbols bool
	}{{"eb-symbols", true}, {"quant-symbols", true}, {"raw", false}} {
		count, sz := binary.Uvarint(data[off:])
		if sz <= 0 {
			t.Fatalf("%s: count cut off at %d", sec.name, off)
		}
		off += sz
		if count == 0 {
			continue
		}
		if sec.symbols {
			_, consumed, err := huffman.ParseTable(data[off:], count)
			if err != nil {
				t.Fatalf("%s: codebook at %d: %v", sec.name, off, err)
			}
			off += consumed
		}
		cc, sz := binary.Uvarint(data[off:])
		if sz <= 0 {
			t.Fatalf("%s: chunk count cut off at %d", sec.name, off)
		}
		off += sz
		start := len(refs)
		for i := 0; i < int(cc); i++ {
			_, sz := binary.Uvarint(data[off:]) // usize
			off += sz
			csize, sz := binary.Uvarint(data[off:])
			off += sz
			refs = append(refs, chunkRef{section: sec.name, modeOff: off, csize: int(csize), mode: data[off]})
			off += 1 + 4 // mode byte + CRC32C column
		}
		for i := start; i < len(refs); i++ {
			refs[i].payOff = off
			off += refs[i].csize
		}
	}
	if off != len(data)-trailerBytes {
		t.Fatalf("walk ended at %d, trailer starts at %d", off, len(data)-trailerBytes)
	}
	return refs
}

// resealTrailer recomputes the whole-stream CRC32C after a tamper, so the
// mutation must be caught by the structural checks, not the checksum.
func resealTrailer(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crcTable))
	return b
}

// flat2D builds a near-constant field whose quantized symbols collapse to
// a tiny alphabet, forcing the encoder onto the bit-packed chunk mode.
func flat2D(nx, ny int) *field.Field {
	f := field.New2D(nx, ny)
	for idx := 0; idx < f.NumVertices(); idx++ {
		f.U[idx] = 0.5
		f.V[idx] = 0.25
	}
	return f
}

// TestV4ModeByteLies flips every chunk mode byte of real v4 archives to
// every other value — including the out-of-range one — reseals the stream
// trailer so the whole-archive checksum passes, and requires the decoder
// to reject each mutant on structural grounds. Without the reseal the
// trailer CRC must already catch the flip. One archive comes from a
// turbulent field (Huffman symbol chunks), one from a flat field (packed
// symbol chunks), so both directions of the symbol-mode flip and both raw
// modes are exercised.
func TestV4ModeByteLies(t *testing.T) {
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.05, Workers: 1}
	seen := map[string]map[byte]bool{}
	for _, tc := range []struct {
		name string
		f    *field.Field
	}{{"gyre", gyre2D(16, 12)}, {"flat", flat2D(16, 12)}} {
		res, err := Compress(tc.f, opts)
		if err != nil {
			t.Fatal(err)
		}
		refs := walkV4(t, res.Bytes)
		for _, r := range refs {
			if seen[r.section] == nil {
				seen[r.section] = map[byte]bool{}
			}
			seen[r.section][r.mode] = true
			for lie := byte(0); lie <= maxChunkMode+1; lie++ {
				if lie == r.mode {
					continue
				}
				mut := append([]byte{}, res.Bytes...)
				mut[r.modeOff] = lie

				// Unresealed: the stream trailer CRC must catch the flip.
				if _, err := Decompress(mut, 4); !errors.Is(err, streamerr.ErrCorrupt) {
					t.Errorf("%s/%s chunk@%d mode %d->%d: unresealed flip: got %v, want ErrCorrupt",
						tc.name, r.section, r.modeOff, r.mode, lie, err)
				}

				// Resealed: every checksum passes, so the per-mode entry and
				// payload validation has to do the rejecting.
				resealTrailer(mut)
				_, err := Decompress(mut, 4)
				if err == nil {
					t.Errorf("%s/%s chunk@%d mode %d->%d decoded silently after trailer reseal",
						tc.name, r.section, r.modeOff, r.mode, lie)
				} else if !errors.Is(err, streamerr.ErrCorrupt) && !errors.Is(err, streamerr.ErrTruncated) {
					t.Errorf("%s/%s chunk@%d mode %d->%d: untyped error: %v",
						tc.name, r.section, r.modeOff, r.mode, lie, err)
				}
				for _, fe := range VerifyAll(mut) {
					if !streamErrTyped(fe) {
						t.Errorf("%s/%s chunk@%d mode %d->%d: untyped verify error: %v",
							tc.name, r.section, r.modeOff, r.mode, lie, fe)
					}
				}
			}
		}
	}
	// The sweep is only meaningful if both symbol chunk modes really
	// appeared somewhere across the two archives.
	var modes []bool = make([]bool, 2)
	for _, sec := range []string{"eb-symbols", "quant-symbols"} {
		for m := range seen[sec] {
			modes[m] = true
		}
	}
	if !modes[symChunkHuffman] || !modes[symChunkPacked] {
		t.Fatalf("symbol chunk modes seen: huffman=%v packed=%v; both must be covered", modes[0], modes[1])
	}
}

// packedSection builds a single-chunk v4 symbol section claiming the given
// payload is a bit-packed chunk for syms, with a freshly sealed per-chunk
// CRC — so a lying payload gets past every checksum and must be rejected
// by decodePackedChunk itself. usize and csize let a lie also disagree
// about the entry sizes; pass len(payload) for an honest directory.
func packedSection(t testing.TB, syms []uint32, payload []byte, usize, csize int) []byte {
	t.Helper()
	if chunkCount(len(syms), chunkSymbols) != 1 {
		t.Fatalf("packedSection wants a single-chunk section, got %d symbols", len(syms))
	}
	table := huffman.BuildTable(syms)
	out := binary.AppendUvarint(nil, uint64(len(syms)))
	out = table.AppendTable(out)
	out = binary.AppendUvarint(out, 1) // chunk count
	out = binary.AppendUvarint(out, uint64(usize))
	out = binary.AppendUvarint(out, uint64(csize))
	out = append(out, symChunkPacked)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// goodPackedPayload encodes syms (all within [0, 2^k)) as an honest packed
// chunk payload: uvarint base 0, width byte k, packed fields.
func goodPackedPayload(syms []uint32, k uint8) []byte {
	pl := binary.AppendUvarint(nil, 0)
	pl = append(pl, k)
	return huffman.AppendPacked(pl, syms, 0, k)
}

// TestPackedSectionLies drives full sections (not bare payloads — that is
// TestPackedChunkLies' job) whose packed chunks lie about base/width:
// over-wide fields, symbol bases past the u32 range, headers that swallow
// the whole payload, payloads whose length disagrees with the declared
// width, and directory entries whose sizes disagree with the packed
// contract. The per-chunk CRC is sealed over each lying payload, so
// rejection must come from the section reader's validation, not checksums.
func TestPackedSectionLies(t *testing.T) {
	syms := make([]uint32, 500)
	for i := range syms {
		syms[i] = uint32(i % 64)
	}
	good := goodPackedPayload(syms, 6)

	// Control: the honest section round-trips through the packed path.
	sec := packedSection(t, syms, good, len(good), len(good))
	got, _, off, err := parseSection(nil, sec, 0, 0, 2, nil)
	if err != nil {
		t.Fatalf("honest packed section: %v", err)
	}
	if off != len(sec) {
		t.Fatalf("consumed %d of %d bytes", off, len(sec))
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, got[i], syms[i])
		}
	}

	overBase := append(binary.AppendUvarint(nil, 1<<33), 0) // 5-byte base past u32, width 0
	wideK := append([]byte{0x00, 33}, make([]byte, 64)...)  // width byte beyond 32 bits
	shortBits := append([]byte{0x00, 6}, make([]byte, huffman.PackedLen(len(syms), 6)-1)...)
	longBits := append([]byte{0x00, 6}, make([]byte, huffman.PackedLen(len(syms), 6)+1)...)
	zeroTrail := []byte{0x00, 0x00, 0x00} // width 0 with a trailing byte
	lies := []struct {
		name         string
		payload      []byte
		usize, csize int
	}{
		{"base-overflow", overBase, len(overBase), len(overBase)},
		{"width-over-32", wideK, len(wideK), len(wideK)},
		{"bits-short", shortBits, len(shortBits), len(shortBits)},
		{"bits-long", longBits, len(longBits), len(longBits)},
		{"zero-width-trailing", zeroTrail, len(zeroTrail), len(zeroTrail)},
		{"header-unterminated", []byte{0x80, 0x81}, 2, 2},           // varint never ends
		{"header-swallows-payload", []byte{0x80, 0x01}, 2, 2},       // base eats the width byte
		{"sizes-disagree", good, len(good) + 1, len(good)},          // packed chunks store uncompressed
		{"undersized-entry", []byte{0x00}, 1, 1},                    // below the 2-byte packed minimum
		{"oversized-entry", good, 4*len(syms) + 7, 4*len(syms) + 7}, // beyond any legal packed chunk
	}
	for _, lie := range lies {
		t.Run(lie.name, func(t *testing.T) {
			sec := packedSection(t, syms, lie.payload, lie.usize, lie.csize)
			_, _, _, err := parseSection(nil, sec, 0, 0, 2, nil)
			if err == nil {
				t.Fatal("lying packed chunk parsed without error")
			}
			if !errors.Is(err, streamerr.ErrCorrupt) && !errors.Is(err, streamerr.ErrTruncated) {
				t.Fatalf("lie surfaced as untyped error: %v", err)
			}
		})
	}
}
