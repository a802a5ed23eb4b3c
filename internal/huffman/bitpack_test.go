package huffman

import (
	"math/rand"
	"testing"
)

// Round-trip across every field width, including k=0 (constant chunks) and
// k=32 (full-range symbols).
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := uint8(0); k <= MaxPackBits; k++ {
		for _, n := range []int{1, 2, 7, 8, 9, 255, 1000} {
			base := rng.Uint32() >> 1
			syms := make([]uint32, n)
			var span uint64 = 1
			if k > 0 {
				span = uint64(1) << k
			}
			for i := range syms {
				d := uint32(rng.Uint64() % span)
				if uint64(base)+uint64(d) > 0xffffffff {
					d = 0
				}
				syms[i] = base + d
			}
			packed := AppendPacked(nil, syms, base, k)
			if got, want := len(packed), PackedLen(n, k); got != want {
				t.Fatalf("k=%d n=%d: packed %d bytes, want %d", k, n, got, want)
			}
			out := make([]uint32, n)
			if err := UnpackChunk(packed, base, k, out); err != nil {
				t.Fatalf("k=%d n=%d: unpack: %v", k, n, err)
			}
			for i := range out {
				if out[i] != syms[i] {
					t.Fatalf("k=%d n=%d: symbol %d: got %d want %d", k, n, i, out[i], syms[i])
				}
			}
		}
	}
}

// A payload whose length disagrees with the directory must be rejected, in
// both directions, as must widths beyond 32 bits.
func TestUnpackChunkRejectsBadSizes(t *testing.T) {
	out := make([]uint32, 9)
	if err := UnpackChunk(make([]byte, PackedLen(9, 5)-1), 0, 5, out); err == nil {
		t.Fatal("short payload accepted")
	}
	if err := UnpackChunk(make([]byte, PackedLen(9, 5)+1), 0, 5, out); err == nil {
		t.Fatal("long payload accepted")
	}
	if err := UnpackChunk(make([]byte, 1), 0, 0, out); err == nil {
		t.Fatal("trailing bytes after zero-width chunk accepted")
	}
	if err := UnpackChunk(make([]byte, 40), 0, 33, out); err == nil {
		t.Fatal("33-bit width accepted")
	}
}

// ChunkBits must agree exactly with what EncodeChunk emits (bits, rounded
// up to the flush byte) and report the true symbol range.
func TestChunkBitsMatchesEncodeChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	syms := make([]uint32, 4096)
	for i := range syms {
		syms[i] = uint32(rng.Intn(97)) + 300
	}
	table := BuildTable(syms)
	for _, chunk := range [][]uint32{syms[:1], syms[:37], syms[100:2100], syms} {
		lo, hi, bits := table.ChunkBits(chunk)
		wlo, whi := chunk[0], chunk[0]
		for _, s := range chunk {
			if s < wlo {
				wlo = s
			}
			if s > whi {
				whi = s
			}
		}
		if lo != wlo || hi != whi {
			t.Fatalf("range [%d,%d], want [%d,%d]", lo, hi, wlo, whi)
		}
		enc := table.EncodeChunk(nil, chunk)
		if want := int(bits+7) / 8; len(enc) != want {
			t.Fatalf("ChunkBits says %d bits (%d bytes), EncodeChunk wrote %d bytes", bits, want, len(enc))
		}
	}
	if lo, hi, bits := table.ChunkBits(nil); lo != 0 || hi != 0 || bits != 0 {
		t.Fatalf("empty chunk reported (%d,%d,%d)", lo, hi, bits)
	}
}
