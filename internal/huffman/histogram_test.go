package huffman

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestHistogramTableEquivalence pins the incremental contract the
// compressor relies on: a table built from per-region Observe calls, with
// the regions observed in shuffled order, is bit-identical (wire form and
// encoded chunks) to the table for the same per-symbol totals counted
// independently. The streams cover overflow-map outliers and a long run
// of ascending symbols, observed both at once and one region per symbol.
func TestHistogramTableEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	mixed := make([]uint32, 50000)
	for i := range mixed {
		switch rng.Intn(10) {
		case 0:
			mixed[i] = ^uint32(0) // overflow-map outlier
		case 1:
			mixed[i] = uint32(denseSyms + rng.Intn(5))
		default:
			mixed[i] = uint32(rng.Intn(300))
		}
	}
	ascending := make([]uint32, 1<<16)
	for i := range ascending {
		ascending[i] = uint32(i)
	}
	// regions cuts syms into pieces of 1..maxLen symbols.
	regions := func(syms []uint32, maxLen int) [][]uint32 {
		var out [][]uint32
		for lo := 0; lo < len(syms); {
			hi := min(lo+1+rng.Intn(maxLen), len(syms))
			out = append(out, syms[lo:hi])
			lo = hi
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		syms    []uint32
		regions [][]uint32
	}{
		{"mixed", mixed, regions(mixed, 4096)},
		{"ascending-one-region", ascending, [][]uint32{ascending}},
		{"ascending-per-symbol", ascending, regions(ascending, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts := make(map[uint32]uint64)
			for _, s := range tc.syms {
				counts[s]++
			}
			want := tableFromMerged(nil, counts)

			rng.Shuffle(len(tc.regions), func(i, j int) {
				tc.regions[i], tc.regions[j] = tc.regions[j], tc.regions[i]
			})
			var h Histogram
			for _, r := range tc.regions {
				h.Observe(r)
			}
			if h.Total() != uint64(len(tc.syms)) {
				t.Fatalf("Total() = %d, want %d", h.Total(), len(tc.syms))
			}
			got := TableFromHistogram(&h)
			if !bytes.Equal(want.AppendTable(nil), got.AppendTable(nil)) {
				t.Fatal("histogram-built table differs in wire form")
			}
			chunk := tc.syms[:4096]
			if !bytes.Equal(want.EncodeChunk(nil, chunk), got.EncodeChunk(nil, chunk)) {
				t.Fatal("histogram-built table encodes chunks differently")
			}
			if !bytes.Equal(BuildTable(tc.syms).AppendTable(nil), got.AppendTable(nil)) {
				t.Fatal("BuildTable differs from the region-observed table")
			}
		})
	}
}

// TestHistogramEmpty pins that a zero-observation histogram yields the
// valid empty table, matching BuildTable(nil).
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	got := TableFromHistogram(&h)
	if got.Len() != 0 {
		t.Fatalf("empty histogram produced %d symbols", got.Len())
	}
	if !bytes.Equal(got.AppendTable(nil), (&Table{}).AppendTable(nil)) {
		t.Fatal("empty table wire forms differ")
	}
}
