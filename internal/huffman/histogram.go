package huffman

// Histogram accumulates symbol frequencies incrementally. The compressor
// never holds a section's symbol stream in one slice: it Observes each
// region's symbols as the region is emitted and builds the section table
// once at the end. Totals are plain sums, so a Histogram fed the same
// multiset of symbols in any observation order yields — via
// TableFromHistogram — a bit-identical table.
//
// A Histogram is not safe for concurrent use; the compressor observes from
// its serial emit stage only.
type Histogram struct {
	dense []uint64
	rest  map[uint32]uint64
	total uint64
}

// Observe adds one occurrence of every symbol in syms.
func (h *Histogram) Observe(syms []uint32) {
	dense := h.dense
	for i, s := range syms {
		switch {
		case int(s) < len(dense):
			dense[s]++
		case s < denseSyms:
			dense = growDense(dense, syms[i:])
			dense[s]++
		default:
			if h.rest == nil {
				h.rest = make(map[uint32]uint64)
			}
			h.rest[s]++
		}
	}
	h.dense = dense
	h.total += uint64(len(syms))
}

// growDense returns dense extended to cover every dense symbol of rest, and at
// least doubled, so neither an ascending stream nor a run of calls with
// rising maxima copies the counts once per new maximum.
func growDense(dense []uint64, rest []uint32) []uint64 {
	top := 0
	for _, s := range rest {
		if s < denseSyms && int(s) > top {
			top = int(s)
		}
	}
	grown := make([]uint64, min(max(top+1, 2*len(dense)), denseSyms))
	copy(grown, dense)
	return grown
}

// Total reports the number of symbols observed so far.
func (h *Histogram) Total() uint64 { return h.total }

// TableFromHistogram builds the canonical codebook for the observed
// frequencies; it depends only on the per-symbol totals. An empty
// histogram yields the valid empty table.
func TableFromHistogram(h *Histogram) *Table {
	if h.total == 0 {
		return &Table{}
	}
	return tableFromMerged(h.dense, h.rest)
}
