package huffman

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Table is a canonical Huffman codebook shared by every chunk of a symbol
// section. The parallel entropy back-end builds one Table per section from
// a global histogram, serializes it once, and then encodes or decodes
// fixed-extent symbol chunks independently — and therefore concurrently —
// against it. The wire form written by AppendTable is identical to the
// inline table of the v1 Encode stream.
type Table struct {
	// Canonical order: entries sorted by (code length, symbol value).
	syms []uint32
	lens []uint8
	code []uint64

	lookup map[uint32]int // encoder: symbol -> canonical index
	dense  []int32        // encoder fast path: symbol -> index, -1 if absent

	// Decoder state, built by finishDecoder.
	maxLen     uint8
	firstCode  []uint64
	firstIndex []int
	countAt    []int
	dtable     []tentry
	tb         int
}

// tentry is one primary-lookup slot of the decoder: any code of length
// <= tb bits resolves with a single peek.
type tentry struct {
	sym uint32
	len uint8
}

// Len reports the number of distinct symbols in the codebook.
func (t *Table) Len() int { return len(t.syms) }

// denseSyms bounds the symbol range counted with array indexing instead of
// map operations. It covers both production alphabets — quantization codes
// zigzag to at most 2*radius = 1<<16 and error-bound exponents stay tiny —
// while reserved sentinels such as quantizer.UnpredictableSym (^uint32(0))
// spill into a small overflow map.
const denseSyms = 1 << 17

// BuildTable constructs the canonical codebook for a whole symbol stream
// (huffman.Encode's single-chunk table). A nil-alphabet table
// (len(symbols) == 0) is valid and encodes only empty chunks.
func BuildTable(symbols []uint32) *Table {
	var h Histogram
	h.Observe(symbols)
	return TableFromHistogram(&h)
}

// tableFromMerged builds the canonical codebook from final frequency
// totals: array counts for dense symbols plus an overflow map. The table —
// and every chunk encoded against it — depends only on the totals, not on
// how they were gathered.
func tableFromMerged(dense []uint64, rest map[uint32]uint64) *Table {
	var syms []uint32
	var freqs []uint64
	for s, c := range dense {
		if c > 0 {
			syms = append(syms, uint32(s))
			freqs = append(freqs, c)
		}
	}
	// Outlier symbols are all >= denseSyms, so appending them in sorted
	// order keeps the whole alphabet sorted.
	restKeys := make([]uint32, 0, len(rest))
	//lint:allow determinism iteration only collects the key set; it is sorted on the next line before anything reaches the stream
	for s := range rest {
		restKeys = append(restKeys, s)
	}
	sort.Slice(restKeys, func(i, j int) bool { return restKeys[i] < restKeys[j] })
	for _, s := range restKeys {
		syms = append(syms, s)
		freqs = append(freqs, rest[s])
	}
	lens := codeLengths(syms, freqs)
	c := buildCanonical(syms, lens)
	t := &Table{syms: c.syms, lens: c.lens, code: c.code}
	t.lookup = make(map[uint32]int, len(c.syms))
	var top uint32
	for i, s := range c.syms {
		t.lookup[s] = i
		if s < denseSyms && s > top {
			top = s
		}
	}
	t.dense = make([]int32, int(top)+1)
	for i := range t.dense {
		t.dense[i] = -1
	}
	for i, s := range c.syms {
		if s < denseSyms {
			t.dense[s] = int32(i)
		}
	}
	return t
}

// AppendTable appends the wire form of the codebook to dst: a uvarint
// distinct-symbol count followed by (zigzag symbol delta, length byte)
// pairs in canonical order.
func (t *Table) AppendTable(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t.syms)))
	prev := uint32(0)
	for i := range t.syms {
		dst = binary.AppendUvarint(dst, zigzag(int64(t.syms[i])-int64(prev)))
		prev = t.syms[i]
		dst = append(dst, t.lens[i])
	}
	return dst
}

// EncodeChunk appends the packed code bits for symbols to dst, flushed to
// a byte boundary so chunks decode independently, and returns the extended
// slice. Symbols absent from the codebook panic; the caller must build the
// table from a superset of every chunk.
func (t *Table) EncodeChunk(dst []byte, symbols []uint32) []byte {
	w := bitWriter{buf: dst}
	dense := t.dense
	for _, s := range symbols {
		var i int
		if int64(s) < int64(len(dense)) {
			i = int(dense[s])
			if i < 0 {
				panic(fmt.Sprintf("huffman: symbol %d not in codebook", s))
			}
		} else {
			var ok bool
			i, ok = t.lookup[s]
			if !ok {
				panic(fmt.Sprintf("huffman: symbol %d not in codebook", s))
			}
		}
		w.writeBits(t.code[i], t.lens[i])
	}
	w.flush()
	return w.buf
}

// ParseTable reads a codebook written by AppendTable, returning the table
// and the number of bytes consumed. count is the total symbol count the
// table will serve; it bounds the plausible alphabet size so corrupt
// streams cannot drive large allocations.
func ParseTable(data []byte, count uint64) (*Table, int, error) {
	distinct, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("huffman: truncated table size")
	}
	consumed := n
	data = data[n:]
	if distinct == 0 || distinct > count {
		return nil, 0, fmt.Errorf("huffman: invalid table size %d for %d symbols", distinct, count)
	}
	// Every table entry takes at least 2 bytes; reject sizes the stream
	// cannot back before allocating anything proportional to them.
	if distinct > uint64(len(data))/2+1 {
		return nil, 0, fmt.Errorf("huffman: table size %d exceeds stream capacity", distinct)
	}
	syms := make([]uint32, distinct)
	lens := make([]uint8, distinct)
	prev := int64(0)
	maxLen := uint8(0)
	for i := range syms {
		d, n := binary.Uvarint(data)
		if n <= 0 || len(data) < n+1 {
			return nil, 0, fmt.Errorf("huffman: truncated table entry %d", i)
		}
		prev += unzigzag(d)
		syms[i] = uint32(prev)
		data = data[n:]
		lens[i] = data[0]
		data = data[1:]
		consumed += n + 1
		if lens[i] == 0 || lens[i] > MaxCodeLen {
			return nil, 0, fmt.Errorf("huffman: invalid code length %d", lens[i])
		}
		if lens[i] > maxLen {
			maxLen = lens[i]
		}
	}
	// Entries must already be in canonical (length-monotone) order.
	for i := 1; i < len(lens); i++ {
		if lens[i] < lens[i-1] {
			return nil, 0, fmt.Errorf("huffman: non-canonical table order")
		}
	}
	t := &Table{syms: syms, lens: lens, maxLen: maxLen}
	if err := t.finishDecoder(); err != nil {
		return nil, 0, err
	}
	return t, consumed, nil
}

// finishDecoder validates the code lengths (Kraft inequality) and builds
// the canonical per-length tables plus the primary lookup table.
func (t *Table) finishDecoder() error {
	maxLen := t.maxLen
	// ParseTable rejects lengths above MaxCodeLen before setting maxLen,
	// but finishDecoder sizes allocations from it, so enforce the bound
	// locally rather than trusting every (future) caller.
	if maxLen > MaxCodeLen {
		return fmt.Errorf("huffman: invalid max code length %d", maxLen)
	}
	t.firstCode = make([]uint64, maxLen+2)
	t.countAt = make([]int, maxLen+2)
	for _, l := range t.lens {
		// The per-length arrays are sized by maxLen, so a length above it
		// (a lens/maxLen mismatch no caller should produce) must fail
		// here rather than index out of range.
		if l > maxLen {
			return fmt.Errorf("huffman: code length %d exceeds declared max %d", l, maxLen)
		}
		t.countAt[l]++
	}
	var code uint64
	t.firstIndex = make([]int, maxLen+2)
	idx := 0
	for l := uint8(1); l <= maxLen; l++ {
		t.firstCode[l] = code
		t.firstIndex[l] = idx
		// Kraft validity: the canonical codes of length l must fit in l
		// bits. An over-subscribed corrupt table would otherwise overflow
		// into neighbouring lookup-table slots (index out of range).
		if t.firstCode[l]+uint64(t.countAt[l]) > 1<<l {
			return fmt.Errorf("huffman: over-subscribed code lengths at %d bits", l)
		}
		code = (code + uint64(t.countAt[l])) << 1
		idx += t.countAt[l]
	}
	// Primary lookup table: any code of length <= tb resolves in a single
	// peek; longer codes fall back to the canonical per-length walk.
	const tableBits = 11
	t.tb = int(maxLen)
	if t.tb > tableBits {
		t.tb = tableBits
	}
	if t.tb < 1 {
		return fmt.Errorf("huffman: empty code table")
	}
	t.dtable = make([]tentry, 1<<t.tb)
	for i := range t.syms {
		l := t.lens[i]
		if int(l) > t.tb {
			continue
		}
		// Reconstruct this symbol's canonical code.
		code := t.firstCode[l] + uint64(i-t.firstIndex[l])
		base := code << (uint(t.tb) - uint(l))
		span := uint64(1) << (uint(t.tb) - uint(l))
		// The Kraft check above guarantees the expansion fits; re-check
		// against the actual table so a corrupt length distribution that
		// slips past it becomes a clean error, not an out-of-range write
		// (the PR1 over-subscribed-table class).
		if base+span > uint64(len(t.dtable)) {
			return fmt.Errorf("huffman: code expansion overflows lookup table at length %d", l)
		}
		for e := uint64(0); e < span; e++ {
			t.dtable[base+e] = tentry{sym: t.syms[i], len: l}
		}
	}
	return nil
}

// DecodeChunk decodes exactly len(out) symbols from a chunk produced by
// EncodeChunk. It never reads past data and never allocates proportionally
// to corrupt inputs: the caller sizes out from a validated directory.
func (t *Table) DecodeChunk(data []byte, out []uint32) error {
	if len(out) == 0 {
		return nil
	}
	if t.dtable == nil {
		return fmt.Errorf("huffman: table has no decoder state")
	}
	// Every symbol consumes at least one bit.
	if uint64(len(out)) > 8*uint64(len(data)) {
		return fmt.Errorf("huffman: %d symbols exceed %d-byte chunk capacity", len(out), len(data))
	}
	return t.decodeBits(data, out)
}

// decodeBits is the shared bit-level decode loop: a bit accumulator
// refilled bytewise, primary-table peeks with a canonical per-length walk
// for long codes.
func (t *Table) decodeBits(data []byte, out []uint32) error {
	count := len(out)
	tb := t.tb
	var acc uint64
	var nacc uint // bits available in acc (MSB-aligned in low bits)
	bitPos := 0
	total := uint64(len(data)) * 8
	consumed := uint64(0)
	for n := 0; n < count; n++ {
		for nacc <= 56 && bitPos < len(data) {
			acc = acc<<8 | uint64(data[bitPos])
			bitPos++
			nacc += 8
		}
		if nacc == 0 {
			return fmt.Errorf("huffman: bitstream exhausted after %d of %d symbols", n, count)
		}
		// Peek up to tb bits (zero-padded at stream end).
		var peek uint64
		if nacc >= uint(tb) {
			peek = (acc >> (nacc - uint(tb))) & ((1 << uint(tb)) - 1)
		} else {
			peek = (acc << (uint(tb) - nacc)) & ((1 << uint(tb)) - 1)
		}
		// The mask bounds peek below 1<<tb and finishDecoder sizes dtable
		// to exactly 1<<tb entries; enforce the invariant locally so a
		// table with inconsistent decoder state fails cleanly instead of
		// reading out of range.
		if peek >= uint64(len(t.dtable)) {
			return fmt.Errorf("huffman: inconsistent decoder table (peek %d, %d slots)", peek, len(t.dtable))
		}
		e := t.dtable[peek]
		if e.len != 0 && uint(e.len) <= nacc && consumed+uint64(e.len) <= total {
			out[n] = e.sym
			nacc -= uint(e.len)
			consumed += uint64(e.len)
			continue
		}
		// Fallback: canonical walk for long codes, bit by bit.
		var code uint64
		var l uint8
		matched := false
		for !matched {
			if nacc == 0 {
				if bitPos >= len(data) {
					return fmt.Errorf("huffman: bitstream exhausted after %d of %d symbols", n, count)
				}
				acc = acc<<8 | uint64(data[bitPos])
				bitPos++
				nacc += 8
			}
			bit := (acc >> (nacc - 1)) & 1
			nacc--
			consumed++
			code = code<<1 | bit
			l++
			if l > t.maxLen {
				return fmt.Errorf("huffman: invalid code (length > %d)", t.maxLen)
			}
			if t.countAt[l] == 0 {
				continue
			}
			offset := code - t.firstCode[l]
			if code >= t.firstCode[l] && offset < uint64(t.countAt[l]) {
				// Kraft validity (finishDecoder) guarantees the canonical
				// index fits; bound it locally so a table whose per-length
				// counts disagree with syms fails cleanly.
				idx := t.firstIndex[l] + int(offset)
				if idx < 0 || idx >= len(t.syms) {
					return fmt.Errorf("huffman: inconsistent canonical index %d for %d symbols", idx, len(t.syms))
				}
				out[n] = t.syms[idx]
				matched = true
			}
		}
	}
	return nil
}
