package cpsz

// The stream reader. One header reader, one section reader and one chunk
// decoder per section kind serve the three walks over a stream: strict
// decode (parse), salvage (salvageParse) and the exhaustive checksum scan
// (VerifyAll). The walks differ only in what they do with a failure: strict
// decode stops at the first, salvage zero-fills a failed chunk and marks a
// section whose framing is unreadable lost, and VerifyAll records every
// failure, checking checksums without decoding anything.

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"

	"tspsz/internal/ebound"
	"tspsz/internal/huffman"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
	"tspsz/internal/streamerr"
)

// Section kinds: the eb and quant sections carry symbols, the third raw
// bytes.
const (
	kindSymbols = iota
	kindRaw
)

// sectionNames is the fixed section order of the stream format.
var sectionNames = [3]string{"eb-symbols", "quant-symbols", "raw"}

// readHeader validates the sealed fixed header of a stream and decodes its
// fields. It returns the whole-stream seal's verdict (nil when the trailer
// verifies) next to err, the header's own first failure. Length, magic,
// version and header CRC are checked before the seal and leave it nil; the
// field checks run after it, so a caller that reports seal ahead of err
// keeps strict decode's order: a broken seal before the field failures
// behind it.
func readHeader(data []byte) (hdr header, seal, err error) {
	if len(data) < headerBytes {
		return hdr, nil, streamerr.Truncated("cpsz header", "%d of %d fixed-header bytes", len(data), headerBytes)
	}
	if string(data[:4]) != streamMagic {
		return hdr, nil, streamerr.Header("cpsz header", "bad magic, not a cpSZ stream")
	}
	if data[4] != formatVersion {
		return hdr, nil, streamerr.Version("cpsz header", data[4]).WithOffset(4)
	}
	if len(data) < sealedHeaderBytes+trailerBytes {
		return hdr, nil, streamerr.Truncated("cpsz header", "%d bytes, a stream needs at least %d", len(data), sealedHeaderBytes+trailerBytes)
	}
	stored := binary.LittleEndian.Uint32(data[headerBytes:])
	if got := crc32.Checksum(data[:headerBytes], crcTable); got != stored {
		return hdr, nil, streamerr.Corrupt("cpsz header", "header CRC32C %08x, stored %08x", got, stored)
	}
	seal = verifyTrailer(data)
	hdr.dim = int(data[5])
	hdr.mode = ebound.Mode(data[6])
	hdr.temporal = data[7]&temporalFlag != 0
	hdr.predictor = Predictor(data[7] &^ temporalFlag)
	if hdr.mode != ebound.Absolute && hdr.mode != ebound.Relative {
		return hdr, seal, streamerr.Header("cpsz header", "unknown error mode %d", hdr.mode)
	}
	if hdr.predictor != PredictorLorenzo && hdr.predictor != PredictorInterpolation {
		return hdr, seal, streamerr.Header("cpsz header", "unknown predictor %d", hdr.predictor)
	}
	hdr.nx = int(binary.LittleEndian.Uint32(data[8:]))
	hdr.ny = int(binary.LittleEndian.Uint32(data[12:]))
	hdr.nz = int(binary.LittleEndian.Uint32(data[16:]))
	hdr.errBound = math.Float64frombits(binary.LittleEndian.Uint64(data[20:]))
	if hdr.dim != 2 && hdr.dim != 3 {
		return hdr, seal, streamerr.Header("cpsz header", "invalid dimension %d", hdr.dim)
	}
	return hdr, seal, nil
}

// verifyTrailer checks the whole-stream trailer. The declared payload
// length must match the stream exactly — a lying trailer is corruption, a
// missing one truncation. The trailer sits at a fixed distance from the
// end, so the sections stay locatable behind a broken seal.
func verifyTrailer(data []byte) error {
	plen := binary.LittleEndian.Uint64(data[len(data)-trailerBytes:])
	if plen != uint64(len(data)-trailerBytes) {
		if plen > uint64(len(data)-trailerBytes) {
			return streamerr.Truncated("cpsz trailer", "trailer declares %d payload bytes, stream carries %d", plen, len(data)-trailerBytes)
		}
		return streamerr.Corrupt("cpsz trailer", "trailer declares %d payload bytes, stream carries %d", plen, len(data)-trailerBytes)
	}
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(data[:len(data)-4], crcTable); got != stored {
		return streamerr.Corrupt("cpsz trailer", "stream CRC32C %08x, stored %08x", got, stored)
	}
	return nil
}

// section is one located section: its unit count n (symbols, or bytes of
// the raw section), the codebook of a symbol section, and its validated
// chunk directory over the payload extent, which starts at stream offset
// base. The directory arrays are borrowed from the scratch handed to
// readSection and live as long as the caller keeps it.
type section struct {
	name    string
	kind    int
	n, cc   int            // section units and chunk count
	table   *huffman.Table // symbol sections only
	usizes  []int          // uncompressed payload bytes per chunk
	offsets []int          // payload start offsets relative to payload
	crcs    []uint32       // CRC32C per compressed payload
	modes   []byte         // per-chunk mode
	payload []byte         // every chunk payload, back to back
	base    int            // stream offset of payload
}

// readSection reads the framing of section si at data[off:] — unit count,
// codebook, chunk directory — into a section whose directory arrays are
// borrowed from s, and returns the offset past its payload. Every failure
// is a framing failure: neither this section's chunks nor any later
// section can be located.
func readSection(s *scratch, data []byte, off, si int) (sec section, next int, err error) {
	sec.name = sectionNames[si]
	if si == len(sectionNames)-1 {
		sec.kind = kindRaw
	}
	// The cursor comes from validated returns up the call chain, but it
	// indexes the stream below, so enforce the bound locally.
	if off < 0 || off > len(data) {
		return sec, 0, streamerr.Corrupt(sec.name, "section offset %d outside %d-byte stream", off, len(data))
	}
	n, sz := binary.Uvarint(data[off:])
	if sz <= 0 {
		if sec.kind == kindRaw {
			return sec, 0, streamerr.Truncated(sec.name, "section length cut off").WithOffset(int64(off))
		}
		return sec, 0, streamerr.Truncated(sec.name, "symbol count cut off").WithOffset(int64(off))
	}
	off += sz
	if n == 0 {
		return sec, off, nil
	}
	if n > sectionCapacity(sec.kind, len(data)-off) {
		if sec.kind == kindRaw {
			return sec, 0, streamerr.Corrupt(sec.name, "raw length %d exceeds stream capacity", n)
		}
		return sec, 0, streamerr.Corrupt(sec.name, "symbol count %d exceeds stream capacity", n)
	}
	if sec.kind == kindSymbols {
		table, consumed, err := huffman.ParseTable(data[off:], n)
		if err != nil {
			return sec, 0, streamerr.Wrap(streamerr.ErrCorrupt, sec.name, err)
		}
		sec.table = table
		off += consumed
	}
	sec.n = int(n)
	off, total, err := readChunkDirectory(s, data, off, &sec)
	if err != nil {
		return sec, 0, err
	}
	// readChunkDirectory keeps the payload total within the remaining
	// stream; re-validate here because the slice below depends on it.
	if total > len(data)-off {
		return sec, 0, streamerr.Truncated(sec.name, "chunk payloads exceed stream length").WithOffset(int64(off))
	}
	sec.payload, sec.base = data[off:off+total], off
	return sec, off + total, nil
}

// sectionCapacity bounds the units a section may claim from the remaining
// stream bytes, rejecting impossible counts before anything is allocated.
// It admits 8·maxDeflateRatio symbols per byte: a Huffman chunk spends at
// least one bit per symbol before DEFLATE shrinks it at most
// maxDeflateRatio-fold, and the writer's packed chunks, even at width 0,
// spend a 7-byte directory entry and a 2-byte payload header per
// chunkSymbols symbols, about one byte per 3641. So every archive the
// writers emit passes, but the bound is an allocation cap, not an exact
// check: hostile width-0 packed chunks can claim up to it, 4 bytes of
// output per symbol. A raw chunk is a DEFLATE stream or stored bytes, so a
// raw section holds at most maxDeflateRatio bytes per stream byte.
func sectionCapacity(kind, remaining int) uint64 {
	if kind == kindRaw {
		return maxDeflateRatio*uint64(remaining) + 64
	}
	return 8*maxDeflateRatio*uint64(remaining) + 64
}

// readChunkDirectory reads and validates sec's chunk directory at
// data[off:] into arrays borrowed from s's arena and returns the offset of
// the first payload byte and the payload total. Every violation is a hard
// error: chunk-count lies, extent overflows, oversize claims, and unknown
// or inconsistent mode tags are rejected before any allocation
// proportional to them. This serial scan computes the offset prefix sums,
// so the per-chunk work (CRC, inflate, decode) can then run in parallel
// against the finished offsets.
func readChunkDirectory(s *scratch, data []byte, off int, sec *section) (payloadOff, total int, err error) {
	name, n := sec.name, sec.n
	cc, sz := binary.Uvarint(data[off:])
	if sz <= 0 {
		return 0, 0, streamerr.Truncated(name, "chunk count cut off").WithOffset(int64(off))
	}
	off += sz
	if cc == 0 || cc > uint64(n) {
		return 0, 0, streamerr.Corrupt(name, "invalid chunk count %d for %d units", cc, n)
	}
	// Every directory entry takes at least 7 bytes: two uvarints, the mode
	// byte and the CRC column.
	if cc > uint64(len(data)-off)/7+1 {
		return 0, 0, streamerr.Corrupt(name, "chunk count %d exceeds stream capacity", cc)
	}
	usizes, offsets, crcs, modes := s.dirArrays(int(cc))
	for i := range usizes {
		usize, sz := binary.Uvarint(data[off:])
		if sz <= 0 {
			return 0, 0, streamerr.Truncated(name, "directory entry cut off").WithChunk(i).WithOffset(int64(off))
		}
		off += sz
		csize, sz := binary.Uvarint(data[off:])
		if sz <= 0 {
			return 0, 0, streamerr.Truncated(name, "directory entry cut off").WithChunk(i).WithOffset(int64(off))
		}
		off += sz
		if off >= len(data) {
			return 0, 0, streamerr.Truncated(name, "directory mode cut off").WithChunk(i).WithOffset(int64(off))
		}
		mode := data[off]
		off++
		if mode > maxChunkMode {
			return 0, 0, streamerr.Corrupt(name, "unknown chunk mode %d", mode).WithChunk(i)
		}
		if off+4 > len(data) {
			return 0, 0, streamerr.Truncated(name, "directory CRC cut off").WithChunk(i).WithOffset(int64(off))
		}
		crcs[i] = binary.LittleEndian.Uint32(data[off:])
		off += 4
		lo, hi := chunkBound(n, int(cc), i)
		if err := checkChunkEntry(sec.kind, mode, hi-lo, usize, csize, name, i); err != nil {
			return 0, 0, err
		}
		if csize > uint64(len(data)-off) {
			return 0, 0, streamerr.Truncated(name, "chunk claims %d compressed bytes, %d remain", csize, len(data)-off).WithChunk(i)
		}
		modes[i] = mode
		usizes[i] = int(usize)
		offsets[i] = total
		total += int(csize)
		if total > len(data)-off {
			return 0, 0, streamerr.Truncated(name, "chunk payloads exceed stream length").WithChunk(i)
		}
	}
	sec.cc = int(cc)
	sec.usizes, sec.offsets, sec.crcs, sec.modes = usizes, offsets, crcs, modes
	return off, total, nil
}

// checkChunkEntry validates one directory entry's (usize, csize) claim
// against its extent, per section kind and chunk mode.
func checkChunkEntry(kind int, mode byte, extent int, usize, csize uint64, section string, i int) error {
	switch {
	case kind == kindSymbols && mode == symChunkHuffman:
		// A chunk of extent symbols packs between extent and
		// extent*MaxCodeLen bits.
		if usize > uint64(extent*huffman.MaxCodeLen/8+8) || usize < uint64((extent+7)/8) {
			return streamerr.Corrupt(section, "chunk claims %d uncompressed bytes for %d units", usize, extent).WithChunk(i)
		}
		// DEFLATE cannot legitimately expand beyond maxDeflateRatio, so an
		// uncompressed size far above the payload marks a decompression
		// bomb; rejecting it here bounds every allocation below by what
		// the stream could actually inflate to.
		if usize > maxDeflateRatio*csize+64 {
			return streamerr.Corrupt(section, "chunk claims %d uncompressed bytes from a %d-byte payload", usize, csize).WithChunk(i)
		}
	case kind == kindSymbols && mode == symChunkPacked:
		// Bit-packed payloads are stored uncompressed: base uvarint (1-5
		// bytes) + width byte + at most 32 bits per symbol.
		if usize != csize {
			return streamerr.Corrupt(section, "packed chunk sizes disagree (%d uncompressed, %d stored)", usize, csize).WithChunk(i)
		}
		if usize < 2 || usize > uint64(4*extent+6) {
			return streamerr.Corrupt(section, "packed chunk claims %d bytes for %d units", usize, extent).WithChunk(i)
		}
	case kind == kindRaw && mode == rawChunkDeflate:
		// Raw chunk extents are byte counts, so the entry must match
		// exactly.
		if usize != uint64(extent) {
			return streamerr.Corrupt(section, "chunk claims %d uncompressed bytes for %d units", usize, extent).WithChunk(i)
		}
		if usize > maxDeflateRatio*csize+64 {
			return streamerr.Corrupt(section, "chunk claims %d uncompressed bytes from a %d-byte payload", usize, csize).WithChunk(i)
		}
	case kind == kindRaw && mode == rawChunkStored:
		if usize != uint64(extent) || csize != uint64(extent) {
			return streamerr.Corrupt(section, "stored chunk sizes (%d, %d) disagree with %d-byte extent", usize, csize, extent).WithChunk(i)
		}
	}
	return nil
}

// verifiedChunk returns chunk i's payload once its checksum verifies. A
// mismatch carries the chunk index and the payload's stream offset.
func (sec *section) verifiedChunk(i int) ([]byte, error) {
	start, end := sec.offsets[i], len(sec.payload)
	if i+1 < sec.cc {
		end = sec.offsets[i+1]
	}
	if start < 0 || start > len(sec.payload) || end > len(sec.payload) || start > end {
		return nil, streamerr.Corrupt(sec.name, "chunk payload [%d,%d) outside the %d-byte payload extent", start, end, len(sec.payload)).WithChunk(i)
	}
	pl := sec.payload[start:end]
	if got := crc32.Checksum(pl, crcTable); got != sec.crcs[i] {
		return nil, streamerr.Corrupt(sec.name, "chunk CRC32C %08x, directory says %08x", got, sec.crcs[i]).
			WithChunk(i).WithOffset(int64(sec.base + start))
	}
	return pl, nil
}

// decodeSymChunk verifies symbol chunk i and decodes it into out, the
// chunk's extent of the section's symbols.
func decodeSymChunk(sec *section, i int, out []uint32) error {
	pl, err := sec.verifiedChunk(i)
	if err != nil {
		return err
	}
	if sec.modes[i] == symChunkPacked {
		return decodePackedChunk(pl, out, sec.name, i)
	}
	// Writers deflate a Huffman chunk only when that shrinks its bits, so
	// usize == csize marks a payload that is the bitstream itself.
	ws := getScratch()
	bits := pl
	if len(pl) != sec.usizes[i] {
		bits = ws.buf(sec.usizes[i])
		err = ws.inflateInto(pl, bits)
	}
	if err == nil {
		err = sec.table.DecodeChunk(bits, out)
	}
	putScratch(ws)
	if err != nil {
		return streamerr.Wrap(streamerr.ErrCorrupt, sec.name, err).WithChunk(i)
	}
	return nil
}

// decodeRawChunk verifies raw chunk i and inflates (or, stored, copies) it
// into out, the chunk's extent of the raw bytes.
func decodeRawChunk(sec *section, i int, out []byte) error {
	pl, err := sec.verifiedChunk(i)
	if err != nil {
		return err
	}
	if sec.modes[i] == rawChunkStored {
		// checkChunkEntry pinned csize == extent: a straight copy.
		copy(out, pl)
		return nil
	}
	ws := getScratch()
	err = ws.inflateInto(pl, out)
	putScratch(ws)
	if err != nil {
		return streamerr.Wrap(streamerr.ErrCorrupt, sec.name, err).WithChunk(i)
	}
	return nil
}

// decodePackedChunk decodes one bit-packed symbol chunk payload (uvarint
// base, width byte, packed fields) into out.
func decodePackedChunk(pl []byte, out []uint32, section string, i int) error {
	base, n := binary.Uvarint(pl)
	if n <= 0 || n >= len(pl) {
		return streamerr.Corrupt(section, "packed chunk header cut off").WithChunk(i)
	}
	if base > math.MaxUint32 {
		return streamerr.Corrupt(section, "packed chunk base %d exceeds symbol range", base).WithChunk(i)
	}
	k := pl[n]
	if err := huffman.UnpackChunk(pl[n+1:], uint32(base), k, out); err != nil {
		return streamerr.Wrap(streamerr.ErrCorrupt, section, err).WithChunk(i)
	}
	return nil
}

// decodeSection allocates sec's units and decodes every chunk into them
// concurrently. With damaged nil it is strict: the first failing chunk ends
// the walk with its error. Otherwise (len(damaged) == sec.cc) it is
// tolerant: a chunk whose checksum or decode fails — even by a contained
// panic on hostile but checksummed bytes — is zero-filled and flagged, its
// neighbours unaffected, and only cancellation ends the walk.
func decodeSection[T uint32 | byte](ctx context.Context, sec section, streamLen, workers int, damaged []bool, decode func(*section, int, []T) error) ([]T, error) {
	// readSection bounded the count by the bytes after it; re-check it
	// against the whole stream where the buffer is allocated.
	if uint64(sec.n) > sectionCapacity(sec.kind, streamLen) {
		return nil, streamerr.Corrupt(sec.name, "%d units exceed stream capacity", sec.n)
	}
	out := make([]T, sec.n)
	units := int64(sec.n)
	if sec.kind == kindSymbols {
		units *= 4
	}
	workers = parallel.SizedWorkers(workers, sec.cc, units, entropyWorkerBytes)
	return out, parallel.For(ctx, sec.cc, workers, 1, func(i int) error {
		lo, hi := chunkBound(sec.n, sec.cc, i)
		if damaged == nil {
			return decode(&sec, i, out[lo:hi])
		}
		defer func() {
			if recover() != nil {
				damaged[i] = true
			}
			if damaged[i] {
				clear(out[lo:hi])
			}
		}()
		damaged[i] = decode(&sec, i, out[lo:hi]) != nil
		return nil
	})
}

// parse strictly decodes a stream: the seal and header first, then each
// section's framing followed by its chunks in parallel, stopping at the
// first failure.
func parse(ctx context.Context, data []byte, workers int, c *obs.Collector) (hdr header, ebSyms, quantSyms []uint32, raw []byte, err error) {
	hdr, seal, err := readHeader(data)
	if seal != nil {
		err = seal
	}
	if err != nil {
		return hdr, nil, nil, nil, err
	}
	body := data[:len(data)-trailerBytes]
	off := sealedHeaderBytes
	for si := range sectionNames {
		syms, rawBytes, next, err := parseSection(ctx, body, off, si, workers, c)
		if err != nil {
			return hdr, nil, nil, nil, err
		}
		switch si {
		case 0:
			ebSyms = syms
		case 1:
			quantSyms = syms
		default:
			raw = rawBytes
		}
		off = next
	}
	if off != len(body) {
		return hdr, nil, nil, nil, trailingBytes(body, off)
	}
	return hdr, ebSyms, quantSyms, raw, nil
}

// parseSection strictly decodes section si at data[off:] — its symbols, or
// for the raw section its bytes — and returns the offset past it.
func parseSection(ctx context.Context, data []byte, off, si, workers int, c *obs.Collector) (syms []uint32, raw []byte, next int, err error) {
	s := getScratch()
	defer putScratch(s)
	sec, next, err := readSection(s, data, off, si)
	if err != nil || sec.n == 0 {
		return nil, nil, next, err
	}
	if sec.kind == kindRaw {
		raw, err = decodeSection(ctx, sec, len(data), workers, nil, decodeRawChunk)
	} else {
		syms, err = decodeSection(ctx, sec, len(data), workers, nil, decodeSymChunk)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	c.Add(obs.CtrChunksDecoded, int64(sec.cc))
	return syms, raw, next, nil
}

// trailingBytes reports bytes between the final section and the trailer.
func trailingBytes(body []byte, off int) error {
	return streamerr.Corrupt("cpsz stream", "%d trailing bytes after final section", len(body)-off).WithOffset(int64(off))
}

// VerifyAll checks every integrity layer of a stream — header CRC,
// whole-stream trailer, section framing and every per-chunk checksum —
// without inflating or decoding any payload, and returns one typed failure
// per violation in stream order: the seal, then the header, then sections
// in order with their chunks ascending. The first entry is the failure
// strict decode would report ahead of any decoding. A framing failure
// that makes later bytes unlocatable is the final entry. An empty result
// means the stream verifies completely.
func VerifyAll(data []byte) []*streamerr.Error {
	var fails []*streamerr.Error
	add := func(err error) {
		if err != nil {
			fails = append(fails, toStreamErr(err))
		}
	}
	add(func() (err error) {
		defer streamerr.Guard("cpsz", &err)
		_, seal, err := readHeader(data)
		add(seal)
		if err != nil {
			return err
		}
		s := getScratch()
		defer putScratch(s)
		body := data[:len(data)-trailerBytes]
		off := sealedHeaderBytes
		for si := range sectionNames {
			sec, next, err := readSection(s, body, off, si)
			if err != nil {
				return err
			}
			for i := range sec.crcs {
				_, err := sec.verifiedChunk(i)
				add(err)
			}
			off = next
		}
		if off != len(body) {
			return trailingBytes(body, off)
		}
		return nil
	}())
	return fails
}

// toStreamErr coerces err into the concrete *streamerr.Error, wrapping
// anything untyped (e.g. a contained panic) as corruption.
func toStreamErr(err error) *streamerr.Error {
	var se *streamerr.Error
	if errors.As(err, &se) {
		return se
	}
	return streamerr.Wrap(streamerr.ErrCorrupt, "cpsz", err)
}
