package huffman

import (
	"math/rand"
	"testing"
)

// skewedSymbols generates an SZ-residual-shaped stream: mostly small
// codes, occasional large ones.
func skewedSymbols(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]uint32, n)
	for i := range s {
		v := uint32(0)
		for rng.Intn(3) == 0 {
			v++
		}
		s[i] = v * uint32(1+rng.Intn(3))
	}
	return s
}

func TestTableChunkedRoundTrip(t *testing.T) {
	syms := skewedSymbols(50000, 11)
	table := BuildTable(syms)
	wire := table.AppendTable(nil)
	parsed, consumed, err := ParseTable(wire, uint64(len(syms)))
	if err != nil {
		t.Fatalf("ParseTable: %v", err)
	}
	if consumed != len(wire) {
		t.Fatalf("ParseTable consumed %d of %d bytes", consumed, len(wire))
	}
	if parsed.Len() != table.Len() {
		t.Fatalf("parsed table has %d symbols, want %d", parsed.Len(), table.Len())
	}
	// Encode in uneven chunks, decode each independently against the
	// parsed table, and compare with the input.
	cuts := []int{0, 1, 9, 4096, 17000, 32768, 49999, 50000}
	got := make([]uint32, 0, len(syms))
	for i := 0; i+1 < len(cuts); i++ {
		chunk := table.EncodeChunk(nil, syms[cuts[i]:cuts[i+1]])
		out := make([]uint32, cuts[i+1]-cuts[i])
		if err := parsed.DecodeChunk(chunk, out); err != nil {
			t.Fatalf("DecodeChunk [%d,%d): %v", cuts[i], cuts[i+1], err)
		}
		got = append(got, out...)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, got[i], syms[i])
		}
	}
}

func TestDecodeChunkRejectsBadCounts(t *testing.T) {
	syms := skewedSymbols(1000, 7)
	table := BuildTable(syms)
	chunk := table.EncodeChunk(nil, syms)
	parsed, _, err := ParseTable(table.AppendTable(nil), uint64(len(syms)))
	if err != nil {
		t.Fatal(err)
	}
	// A count beyond the chunk's bit capacity is rejected before decoding.
	big := make([]uint32, 8*len(chunk)+1)
	if err := parsed.DecodeChunk(chunk, big); err == nil {
		t.Error("count beyond chunk bit capacity accepted")
	}
	// Zero symbols from any payload is trivially fine.
	if err := parsed.DecodeChunk(nil, nil); err != nil {
		t.Errorf("empty decode errored: %v", err)
	}
}

func TestDecodeChunkTruncatedPayload(t *testing.T) {
	syms := skewedSymbols(5000, 9)
	table := BuildTable(syms)
	chunk := table.EncodeChunk(nil, syms)
	parsed, _, err := ParseTable(table.AppendTable(nil), uint64(len(syms)))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, len(syms))
	for cut := 1; cut < len(chunk); cut += 97 {
		if err := parsed.DecodeChunk(chunk[:cut], out); err == nil {
			t.Fatalf("chunk truncated to %d of %d bytes decoded fully", cut, len(chunk))
		}
	}
}

func TestBuildTableEmptyAndSingle(t *testing.T) {
	if got := BuildTable(nil).Len(); got != 0 {
		t.Fatalf("empty table has %d symbols", got)
	}
	table := BuildTable([]uint32{42, 42, 42})
	chunk := table.EncodeChunk(nil, []uint32{42, 42, 42})
	parsed, _, err := ParseTable(table.AppendTable(nil), 3)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, 3)
	if err := parsed.DecodeChunk(chunk, out); err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 42 {
			t.Fatalf("single-symbol chunk decoded to %v", out)
		}
	}
}
