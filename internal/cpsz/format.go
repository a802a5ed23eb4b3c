package cpsz

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/huffman"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
	"tspsz/internal/streamerr"
)

const streamMagic = "CPSZ"

// Stream format versions. v1 runs each whole symbol section through one
// Huffman pass and one DEFLATE stream, serializing the entropy stage; v2
// shards every section into fixed-extent chunks coded against a shared
// per-section codebook, so both directions run the entropy stage in
// parallel (§VII); v3 keeps the v2 layout and makes it tamper-evident: a
// CRC32C over the fixed header, a per-chunk CRC32C column in the chunk
// directory (verified inside the parallel chunk-inflate workers, so
// integrity costs no extra pass), and a whole-stream trailer carrying the
// payload length plus a CRC32C over everything before it. v4 adds a
// per-chunk mode byte to the directory: a chunk whose symbol range fits k
// bits, and for which Huffman coding would gain less than ~5% over raw
// k-bit packing, is stored bit-packed (mode 1) instead of
// Huffman+DEFLATE (mode 0), turning its decode into a branch-light
// fixed-width loop; raw-section chunks that DEFLATE would expand are
// stored verbatim (mode 1) rather than inflated on decode. Within mode 0,
// v4 deflates the entropy-coded bits only when that actually shrinks them
// — usize == csize marks a chunk whose payload is the bitstream itself —
// so the common decode path touches no flate state at all. The writer
// always emits v4; the reader accepts all four.
const (
	formatV1      = 1
	formatV2      = 2
	formatV3      = 3
	formatV4      = 4
	formatVersion = formatV4
)

// Per-chunk modes of the v4 directory. Symbol sections: Huffman+DEFLATE or
// fixed-width bit packing. Raw section: DEFLATE or stored verbatim. The
// zero mode is in each case the pre-v4 behaviour, so pre-v4 directories
// (which carry no mode byte) read as all-zero modes.
const (
	symChunkHuffman = 0
	symChunkPacked  = 1
	rawChunkDeflate = 0
	rawChunkStored  = 1
	maxChunkMode    = 1
)

// Directory kinds select per-mode entry validation in parseChunkDirectory.
const (
	kindSymbols = iota
	kindRaw
)

// crcTable selects the Castagnoli polynomial, for which hash/crc32 uses
// the hardware CRC instructions on amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// chunkSymbols is the entropy-chunk extent of the symbol sections and
// chunkRawBytes the extent of the verbatim-float section. Chunk counts
// derive from the section length alone and boundaries from the same
// n-into-cc partition as parallel.Ranges, so archives are byte-identical
// for every worker count.
const (
	chunkSymbols  = 1 << 15
	chunkRawBytes = 1 << 17
)

// entropyWorkerBytes is the minimum per-worker payload (in uncompressed
// unit bytes: 4 per symbol, 1 per raw byte) an entropy-stage shard must
// carry; parallel.SizedWorkers clamps the pool below that, so tiny
// sections never spawn more flate streams than they have work for.
const entropyWorkerBytes = 64 << 10

// maxDeflateRatio bounds plausible DEFLATE expansion (the format's
// theoretical maximum is ~1032:1). v1 sections carry no uncompressed size,
// so inflation is capped at this multiple of the compressed payload;
// anything larger is a corrupt or adversarial stream, not a valid archive.
const maxDeflateRatio = 1032

// header mirrors the on-wire stream header.
type header struct {
	dim        int
	nx, ny, nz int
	mode       ebound.Mode
	predictor  Predictor
	temporal   bool
	errBound   float64
}

// temporalFlag marks streams predicted against a previous frame.
const temporalFlag = 0x80

// headerBytes is the fixed-width header size shared by every version;
// v3+ appends headerCRCBytes of CRC32C over it. trailerBytes is the
// whole-stream trailer: a little-endian u64 payload length (everything
// before the trailer) followed by the CRC32C of those bytes.
const (
	headerBytes    = 28
	headerCRCBytes = 4
	headerBytesV3  = headerBytes + headerCRCBytes
	trailerBytes   = 12
)

// serialize assembles the final stream: CRC-sealed header, chunked
// mode-tagged symbol sections with per-chunk checksums, a chunked raw-float
// section, and the whole-stream trailer. This mirrors SZ's Huffman +
// lossless-backend pipeline with the entropy stage sharded across
// opts.Workers.
func serialize(ctx context.Context, f *field.Field, opts Options, ebSyms, quantSyms []uint32, raw []byte) ([]byte, error) {
	c := opts.Collector
	workers := parallel.Workers(opts.Workers)
	out := make([]byte, 0, headerBytesV3+len(raw)/2+(len(ebSyms)+len(quantSyms))/4)
	out = append(out, streamMagic...)
	out = append(out, formatVersion, byte(f.Dim()), byte(opts.Mode))
	pb := byte(opts.Predictor)
	if opts.Reference != nil {
		pb |= temporalFlag
	}
	out = append(out, pb)
	nx, ny, nz := f.Grid.Dims()
	for _, v := range []uint32{uint32(nx), uint32(ny), uint32(nz)} {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(opts.ErrBound))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[:headerBytes], crcTable))
	c.Add(obs.CtrBytesStreamHeader, int64(len(out)))
	var err error
	for si, syms := range [][]uint32{ebSyms, quantSyms} {
		mark := len(out)
		if out, err = appendSymbolSection(ctx, out, syms, workers, c); err != nil {
			return nil, err
		}
		ctr := obs.CtrBytesSectionEb
		if si == 1 {
			ctr = obs.CtrBytesSectionQuant
		}
		c.Add(ctr, int64(len(out)-mark))
	}
	mark := len(out)
	if out, err = appendRawSection(ctx, out, raw, workers, c); err != nil {
		return nil, err
	}
	c.Add(obs.CtrBytesSectionRaw, int64(len(out)-mark))
	out = appendTrailer(out)
	c.Add(obs.CtrBytesStreamTrailer, trailerBytes)
	c.Add(obs.CtrBytesOut, int64(len(out)))
	return out, nil
}

// appendTrailer seals the stream: u64 length of everything before the
// trailer, then the CRC32C of all preceding bytes (payload + length field,
// so a tampered length field fails the checksum too).
func appendTrailer(out []byte) []byte {
	out = binary.LittleEndian.AppendUint64(out, uint64(len(out)))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// chunkCount returns how many fixed-extent chunks a section of n units
// splits into; it depends only on n, never on the worker count.
func chunkCount(n, extent int) int {
	c := (n + extent - 1) / extent
	if c < 1 {
		c = 1
	}
	return c
}

// chunkBound returns chunk i's unit extent under the same n-into-cc
// partition parallel.Ranges produces (cc <= n, so no range is empty).
func chunkBound(n, cc, i int) (lo, hi int) {
	return i * n / cc, (i + 1) * n / cc
}

// encChunk is one encoded chunk awaiting the serialize merge: its payload
// (a chunkBufPool buffer whose ownership transfers to the merge), the
// uncompressed size and mode for the directory entry, the payload CRC32C,
// and the extent offset the merge assigns.
type encChunk struct {
	payload []byte
	usize   int
	mode    byte
	crc     uint32
	off     int
}

// appendSymbolSection writes one v4 symbol section: uvarint symbol count,
// the shared canonical codebook, a uvarint chunk count, a directory of
// per-chunk (uncompressed size, compressed size, mode, payload CRC32C)
// entries, then the chunk payloads. Chunks are encoded and checksummed
// concurrently; per chunk the encoder picks Huffman+DEFLATE or fixed-width
// bit packing, a decision that depends only on the chunk contents and the
// shared table, so archives stay byte-identical at any worker count.
func appendSymbolSection(ctx context.Context, dst []byte, syms []uint32, workers int, c *obs.Collector) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(syms)))
	if len(syms) == 0 {
		return dst, nil
	}
	var table *huffman.Table
	if err := c.Do(obs.StageHistogram, workers, int64(len(syms)), func() error {
		var err error
		table, err = huffman.BuildTableCtx(ctx, syms, workers)
		return err
	}); err != nil {
		return nil, err
	}
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
	c.Add(obs.CtrChunksEncoded, int64(cc))
	return mergeChunks(dst, outs, workers)
}

// encodeSymChunk encodes one fixed-extent symbol chunk against the shared
// table into a pooled payload buffer (ownership of the returned payload
// transfers to the caller). The per-chunk mode decision depends only on
// the chunk contents and the table, never on scheduling, so the in-memory
// serialize path and the streaming writer produce identical bytes by
// construction.
func encodeSymChunk(table *huffman.Table, chunk []uint32) (encChunk, error) {
	slo, shi, hbits := table.ChunkBits(chunk)
	k := uint8(bits.Len32(shi - slo))
	//lint:allow poolguard ownership of the payload transfers to the caller, which re-pools it via repoolChunks
	payload := getChunkBuf()
	e := encChunk{mode: symChunkHuffman}
	// Huffman must beat raw k-bit packing by more than ~5% of the
	// packed size to earn its codebook walk on decode; otherwise the
	// chunk goes bit-packed. k == 0 (constant chunks) always packs.
	if packedBits := uint64(k) * uint64(len(chunk)); 20*hbits >= 19*packedBits {
		payload = binary.AppendUvarint(payload, uint64(slo))
		payload = append(payload, k)
		payload = huffman.AppendPacked(payload, chunk, slo, k)
		e.mode = symChunkPacked
		e.usize = len(payload)
	} else {
		s := getScratch()
		s.bits = table.EncodeChunk(s.bits[:0], chunk)
		var err error
		payload, err = s.deflate(payload, s.bits)
		e.usize = len(s.bits)
		if err == nil && len(payload) >= len(s.bits) {
			// Entropy-coded bits are near-incompressible, so DEFLATE
			// usually breaks even or expands; store the bits verbatim.
			// usize == csize marks the stored form for the reader, which
			// then skips inflate entirely on the hot path.
			payload = append(payload[:0], s.bits...)
		}
		putScratch(s)
		if err != nil {
			putChunkBuf(payload)
			return encChunk{}, err
		}
	}
	e.payload = payload
	e.crc = crc32.Checksum(payload, crcTable)
	return e, nil
}

// encodeRawChunk encodes one verbatim-float chunk into a pooled payload
// buffer (ownership transfers to the caller), choosing DEFLATE or stored
// mode from the chunk contents alone.
func encodeRawChunk(chunk []byte) (encChunk, error) {
	//lint:allow poolguard ownership of the payload transfers to the caller, which re-pools it via repoolChunks
	payload := getChunkBuf()
	s := getScratch()
	payload, err := s.deflate(payload, chunk)
	putScratch(s)
	if err != nil {
		putChunkBuf(payload)
		return encChunk{}, err
	}
	e := encChunk{usize: len(chunk), mode: rawChunkDeflate}
	if len(payload) >= len(chunk) {
		// DEFLATE expanded (or broke even): store the bytes verbatim.
		payload = append(payload[:0], chunk...)
		e.mode = rawChunkStored
	}
	e.payload = payload
	e.crc = crc32.Checksum(payload, crcTable)
	return e, nil
}

// appendRawSection writes the verbatim-float section with the same
// directory layout as the symbol sections; chunks that DEFLATE cannot
// shrink are stored verbatim (mode 1) so decode is a straight copy.
func appendRawSection(ctx context.Context, dst []byte, raw []byte, workers int, c *obs.Collector) ([]byte, error) {
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
	c.Add(obs.CtrChunksEncoded, int64(cc))
	return mergeChunks(dst, outs, workers)
}

// repoolChunks returns every payload the encode workers deposited before a
// failure or cancellation ended the dispatch. All workers have joined by
// the time the dispatcher returns its error, so the deposited buffers have
// exactly one owner here; chunks that never ran hold nil.
func repoolChunks(outs []encChunk) {
	for i := range outs {
		if outs[i].payload != nil {
			putChunkBuf(outs[i].payload)
			outs[i].payload = nil
		}
	}
}

// mergeChunks appends the uvarint chunk count and the v4 directory to dst,
// then copies every chunk payload into its pre-computed disjoint extent of
// a single grown region — concurrently, since the extents are a prefix-sum
// partition — instead of appending payloads one by one. Payload buffers
// return to the pool once copied, also when a copy worker panics.
func mergeChunks(dst []byte, outs []encChunk, workers int) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(outs)))
	total := 0
	for i := range outs {
		outs[i].off = total
		total += len(outs[i].payload)
		dst = binary.AppendUvarint(dst, uint64(outs[i].usize))
		dst = binary.AppendUvarint(dst, uint64(len(outs[i].payload)))
		dst = append(dst, outs[i].mode)
		dst = binary.LittleEndian.AppendUint32(dst, outs[i].crc)
	}
	dst = growBytes(dst, total)
	payload := dst[len(dst)-total:]
	err := parallel.For(nil, len(outs), workers, 1, func(i int) error {
		copy(payload[outs[i].off:outs[i].off+len(outs[i].payload)], outs[i].payload)
		return nil
	})
	for i := range outs {
		putChunkBuf(outs[i].payload)
		outs[i].payload = nil
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// growBytes extends b by n bytes (contents of the extension unspecified;
// the caller overwrites every byte) without the intermediate zeroed slice
// an append(b, make([]byte, n)...) would allocate.
func growBytes(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[: len(b)+n : cap(b)]
	}
	grown := make([]byte, len(b)+n, max(2*cap(b), len(b)+n))
	copy(grown, b)
	return grown[:len(b)+n]
}

// parse splits a stream back into its header and sections, dispatching on
// the format version byte. For v3+ streams the header CRC and whole-stream
// trailer are verified up front and the per-chunk checksums inside the
// parallel section readers.
func parse(ctx context.Context, data []byte, workers int, c *obs.Collector) (hdr header, ebSyms, quantSyms []uint32, raw []byte, err error) {
	hdr, off, end, err := parseHeader(data)
	if err != nil {
		return hdr, nil, nil, nil, err
	}
	version := data[4]
	if version == formatV1 {
		ebSyms, quantSyms, raw, err = parseSectionsV1(data, off)
	} else {
		ebSyms, quantSyms, raw, err = parseSectionsV2(ctx, data[:end], off, workers, version, c)
	}
	if err != nil {
		return hdr, nil, nil, nil, err
	}
	return hdr, ebSyms, quantSyms, raw, nil
}

// parseHeader validates the fixed header (and, for v3+, the header CRC and
// the whole-stream trailer), returning the decoded header, the offset of
// the first section, and the offset one past the last section byte.
func parseHeader(data []byte) (hdr header, off, end int, err error) {
	if len(data) < headerBytes {
		return hdr, 0, 0, streamerr.Truncated("cpsz header", "%d of %d fixed-header bytes", len(data), headerBytes)
	}
	if string(data[:4]) != streamMagic {
		return hdr, 0, 0, streamerr.Header("cpsz header", "bad magic, not a cpSZ stream")
	}
	version := data[4]
	if version < formatV1 || version > formatV4 {
		return hdr, 0, 0, streamerr.Version("cpsz header", version)
	}
	end = len(data)
	off = headerBytes
	if version >= formatV3 {
		if len(data) < headerBytesV3+trailerBytes {
			return hdr, 0, 0, streamerr.Truncated("cpsz header", "%d bytes, v%d needs at least %d", len(data), version, headerBytesV3+trailerBytes)
		}
		stored := binary.LittleEndian.Uint32(data[headerBytes:])
		if got := crc32.Checksum(data[:headerBytes], crcTable); got != stored {
			return hdr, 0, 0, streamerr.Corrupt("cpsz header", "header CRC32C %08x, stored %08x", got, stored)
		}
		off = headerBytesV3
		end, err = verifyTrailer(data)
		if err != nil {
			return hdr, 0, 0, err
		}
	}
	hdr.dim = int(data[5])
	hdr.mode = ebound.Mode(data[6])
	hdr.temporal = data[7]&temporalFlag != 0
	hdr.predictor = Predictor(data[7] &^ temporalFlag)
	if hdr.predictor != PredictorLorenzo && hdr.predictor != PredictorInterpolation {
		return hdr, 0, 0, streamerr.Header("cpsz header", "unknown predictor %d", hdr.predictor)
	}
	hdr.nx = int(binary.LittleEndian.Uint32(data[8:]))
	hdr.ny = int(binary.LittleEndian.Uint32(data[12:]))
	hdr.nz = int(binary.LittleEndian.Uint32(data[16:]))
	hdr.errBound = float64frombits(binary.LittleEndian.Uint64(data[20:]))
	if hdr.dim != 2 && hdr.dim != 3 {
		return hdr, 0, 0, streamerr.Header("cpsz header", "invalid dimension %d", hdr.dim)
	}
	return hdr, off, end, nil
}

// verifyTrailer checks the whole-stream trailer and returns the offset
// of the trailer (one past the last section byte). The declared payload
// length must match the stream exactly — a lying trailer is corruption,
// a missing one truncation.
func verifyTrailer(data []byte) (int, error) {
	plen := binary.LittleEndian.Uint64(data[len(data)-trailerBytes:])
	if plen != uint64(len(data)-trailerBytes) {
		if plen > uint64(len(data)-trailerBytes) {
			return 0, streamerr.Truncated("cpsz trailer", "trailer declares %d payload bytes, stream carries %d", plen, len(data)-trailerBytes)
		}
		return 0, streamerr.Corrupt("cpsz trailer", "trailer declares %d payload bytes, stream carries %d", plen, len(data)-trailerBytes)
	}
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(data[:len(data)-4], crcTable); got != stored {
		return 0, streamerr.Corrupt("cpsz trailer", "stream CRC32C %08x, stored %08x", got, stored)
	}
	return len(data) - trailerBytes, nil
}

// parseSectionsV1 reads the legacy layout: three length-prefixed DEFLATE
// payloads, the first two wrapping whole-section Huffman streams. Kept so
// pre-v2 archives and the fuzz corpus still decode.
func parseSectionsV1(data []byte, off int) (ebSyms, quantSyms []uint32, raw []byte, err error) {
	sections := make([][]byte, 3)
	names := [3]string{"eb-symbols", "quant-symbols", "raw"}
	for i := range sections {
		if off+8 > len(data) {
			return nil, nil, nil, streamerr.Truncated(names[i], "section length cut off").WithOffset(int64(off))
		}
		n := binary.LittleEndian.Uint64(data[off:])
		off += 8
		if uint64(off)+n > uint64(len(data)) {
			return nil, nil, nil, streamerr.Truncated(names[i], "section claims %d bytes, %d remain", n, len(data)-off).WithOffset(int64(off))
		}
		packed := data[off : off+int(n)]
		off += int(n)
		// v1 carries no uncompressed sizes; cap the inflation at the
		// maximum a DEFLATE payload of this size can legitimately
		// produce, so a corrupt stream cannot drive an unbounded
		// allocation.
		sections[i], err = inflateCap(packed, maxDeflateRatio*uint64(len(packed))+64)
		if err != nil {
			return nil, nil, nil, streamerr.Wrap(streamerr.ErrCorrupt, names[i], err)
		}
	}
	if ebSyms, err = huffman.Decode(sections[0]); err != nil {
		return nil, nil, nil, streamerr.Wrap(streamerr.ErrCorrupt, "eb-symbols", err)
	}
	if quantSyms, err = huffman.Decode(sections[1]); err != nil {
		return nil, nil, nil, streamerr.Wrap(streamerr.ErrCorrupt, "quant-symbols", err)
	}
	return ebSyms, quantSyms, sections[2], nil
}

// parseSectionsV2 reads the chunked layout shared by v2 through v4,
// inflating and entropy-decoding the chunks of each section concurrently.
// The version selects the directory layout: v3 adds the per-chunk CRC32C
// column, v4 the per-chunk mode byte.
func parseSectionsV2(ctx context.Context, data []byte, off, workers int, version byte, c *obs.Collector) (ebSyms, quantSyms []uint32, raw []byte, err error) {
	if ebSyms, off, err = parseSymbolSection(ctx, data, off, workers, version, "eb-symbols", c); err != nil {
		return nil, nil, nil, err
	}
	if quantSyms, off, err = parseSymbolSection(ctx, data, off, workers, version, "quant-symbols", c); err != nil {
		return nil, nil, nil, err
	}
	if raw, off, err = parseRawSection(ctx, data, off, workers, version, c); err != nil {
		return nil, nil, nil, err
	}
	if off != len(data) {
		return nil, nil, nil, streamerr.Corrupt("cpsz stream", "%d trailing bytes after final section", len(data)-off).WithOffset(int64(off))
	}
	return ebSyms, quantSyms, raw, nil
}

// chunkDirectory holds the validated per-chunk extents of one section. The
// unit bounds of chunk i derive from (n, cc) alone via chunkBound, so the
// directory allocates nothing per chunk beyond its arena-backed arrays.
type chunkDirectory struct {
	n, cc   int      // section units and chunk count
	usizes  []int    // uncompressed payload bytes per chunk (arena-backed)
	offsets []int    // payload start offsets relative to the payload base
	crcs    []uint32 // CRC32C per compressed payload (v3+ only, else nil)
	modes   []byte   // per-chunk mode (v4 only, else nil = all mode 0)
	total   int      // total payload bytes
}

// bound returns chunk i's unit extent.
func (d *chunkDirectory) bound(i int) (lo, hi int) { return chunkBound(d.n, d.cc, i) }

// mode returns chunk i's mode tag; pre-v4 directories are all mode 0.
func (d *chunkDirectory) mode(i int) byte {
	if d.modes == nil {
		return 0
	}
	return d.modes[i]
}

// payloadAt returns chunk i's compressed payload within the section
// payload base.
func (d *chunkDirectory) payloadAt(payload []byte, i int) []byte {
	end := d.total
	if i+1 < len(d.offsets) {
		end = d.offsets[i+1]
	}
	return payload[d.offsets[i]:end]
}

// parseChunkDirectory reads and validates a chunk directory at data[off:]
// into arrays borrowed from s's arena (the caller keeps s checked out for
// the directory's lifetime). n is the section length in units; kind
// selects the per-mode entry validation. Every violation is a hard error:
// chunk-count lies, extent overflows, oversize claims, and unknown or
// inconsistent mode tags are rejected before any allocation proportional
// to them. The walk is two passes in effect: this single serial scan
// computes the offset prefix-sums, and the per-chunk work (CRC, inflate,
// decode) then runs in parallel against the finished offsets.
func parseChunkDirectory(s *scratch, data []byte, off, n int, version byte, kind int, section string) (chunkDirectory, int, error) {
	withCRC := version >= formatV3
	withMode := version >= formatV4
	var dir chunkDirectory
	cc, sz := binary.Uvarint(data[off:])
	if sz <= 0 {
		return dir, 0, streamerr.Truncated(section, "chunk count cut off").WithOffset(int64(off))
	}
	off += sz
	if cc == 0 || cc > uint64(n) {
		return dir, 0, streamerr.Corrupt(section, "invalid chunk count %d for %d units", cc, n)
	}
	// Every directory entry takes at least 2 bytes (plus the CRC column and
	// the mode byte).
	entryMin := uint64(2)
	if withCRC {
		entryMin += 4
	}
	if withMode {
		entryMin++
	}
	if cc > uint64(len(data)-off)/entryMin+1 {
		return dir, 0, streamerr.Corrupt(section, "chunk count %d exceeds stream capacity", cc)
	}
	dir.n, dir.cc = n, int(cc)
	usizes, offsets, crcs, modes := s.dirArrays(int(cc))
	dir.usizes, dir.offsets = usizes, offsets
	if withCRC {
		dir.crcs = crcs
	}
	if withMode {
		dir.modes = modes
	}
	for i := 0; i < int(cc); i++ {
		usize, sz := binary.Uvarint(data[off:])
		if sz <= 0 {
			return dir, 0, streamerr.Truncated(section, "directory entry cut off").WithChunk(i).WithOffset(int64(off))
		}
		off += sz
		csize, sz := binary.Uvarint(data[off:])
		if sz <= 0 {
			return dir, 0, streamerr.Truncated(section, "directory entry cut off").WithChunk(i).WithOffset(int64(off))
		}
		off += sz
		mode := byte(0)
		if withMode {
			if off >= len(data) {
				return dir, 0, streamerr.Truncated(section, "directory mode cut off").WithChunk(i).WithOffset(int64(off))
			}
			mode = data[off]
			off++
			if mode > maxChunkMode {
				return dir, 0, streamerr.Corrupt(section, "unknown chunk mode %d", mode).WithChunk(i)
			}
			modes[i] = mode
		}
		if withCRC {
			if off+4 > len(data) {
				return dir, 0, streamerr.Truncated(section, "directory CRC cut off").WithChunk(i).WithOffset(int64(off))
			}
			crcs[i] = binary.LittleEndian.Uint32(data[off:])
			off += 4
		}
		lo, hi := dir.bound(i)
		extent := hi - lo
		if err := checkChunkEntry(kind, mode, extent, usize, csize, section, i); err != nil {
			return dir, 0, err
		}
		if csize > uint64(len(data)-off) {
			return dir, 0, streamerr.Truncated(section, "chunk claims %d compressed bytes, %d remain", csize, len(data)-off).WithChunk(i)
		}
		usizes[i] = int(usize)
		offsets[i] = dir.total
		dir.total += int(csize)
		if dir.total > len(data)-off {
			return dir, 0, streamerr.Truncated(section, "chunk payloads exceed stream length").WithChunk(i)
		}
	}
	return dir, off, nil
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

// verifyChunk checks a v3+ per-chunk checksum; it runs inside the parallel
// section workers so integrity verification costs no extra pass over the
// stream.
func (d *chunkDirectory) verifyChunk(payload []byte, i int, section string) error {
	if d.crcs == nil {
		return nil
	}
	if got := crc32.Checksum(d.payloadAt(payload, i), crcTable); got != d.crcs[i] {
		return streamerr.Corrupt(section, "chunk CRC32C %08x, directory says %08x", got, d.crcs[i]).WithChunk(i)
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

// parseSymbolSection reads one chunked symbol section, returning the
// decoded symbols and the offset past the section.
func parseSymbolSection(ctx context.Context, data []byte, off, workers int, version byte, section string, c *obs.Collector) ([]uint32, int, error) {
	// The cursor is maintained by validated returns up the call chain, but
	// it indexes the stream below, so enforce the bound locally.
	if off < 0 || off > len(data) {
		return nil, 0, streamerr.Corrupt(section, "section offset %d outside %d-byte stream", off, len(data))
	}
	count, sz := binary.Uvarint(data[off:])
	if sz <= 0 {
		return nil, 0, streamerr.Truncated(section, "symbol count cut off").WithOffset(int64(off))
	}
	off += sz
	if count == 0 {
		return nil, off, nil
	}
	// Every symbol takes at least one bit of some chunk; reject counts the
	// stream cannot back before allocating the output.
	if count > 8*maxDeflateRatio*uint64(len(data)-off)+64 {
		return nil, 0, streamerr.Corrupt(section, "symbol count %d exceeds stream capacity", count)
	}
	table, consumed, err := huffman.ParseTable(data[off:], count)
	if err != nil {
		return nil, 0, streamerr.Wrap(streamerr.ErrCorrupt, section, err)
	}
	off += consumed
	s := getScratch()
	defer putScratch(s)
	dir, off, err := parseChunkDirectory(s, data, off, int(count), version, kindSymbols, section)
	if err != nil {
		return nil, 0, err
	}
	// parseChunkDirectory keeps dir.total within the remaining stream;
	// re-validate here because the slice below depends on it.
	if dir.total > len(data)-off {
		return nil, 0, streamerr.Truncated(section, "chunk payloads exceed stream length").WithOffset(int64(off))
	}
	payload := data[off : off+dir.total]
	out := make([]uint32, count)
	workers = parallel.SizedWorkers(workers, dir.cc, 4*int64(count), entropyWorkerBytes)
	err = parallel.For(ctx, dir.cc, workers, 1, func(i int) error {
		if err := dir.verifyChunk(payload, i, section); err != nil {
			return err
		}
		lo, hi := dir.bound(i)
		pl := dir.payloadAt(payload, i)
		if dir.mode(i) == symChunkPacked {
			return decodePackedChunk(pl, out[lo:hi], section, i)
		}
		ws := getScratch()
		var err error
		bits := pl
		if version < formatV4 || len(pl) != dir.usizes[i] {
			// Pre-v4 Huffman chunks are always deflated; v4 writers deflate
			// only when it shrinks the bits, so usize == csize means the
			// payload is the entropy-coded bitstream itself.
			bits = ws.buf(dir.usizes[i])
			err = ws.inflateInto(pl, bits)
		}
		if err == nil {
			err = table.DecodeChunk(bits, out[lo:hi])
		}
		putScratch(ws)
		if err != nil {
			return streamerr.Wrap(streamerr.ErrCorrupt, section, err).WithChunk(i)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	c.Add(obs.CtrChunksDecoded, int64(dir.cc))
	return out, off + dir.total, nil
}

// parseRawSection reads the verbatim-float section, inflating (or, for
// stored chunks, copying) chunks concurrently straight into their disjoint
// extents of the output.
func parseRawSection(ctx context.Context, data []byte, off, workers int, version byte, c *obs.Collector) ([]byte, int, error) {
	const section = "raw"
	if off < 0 || off > len(data) {
		return nil, 0, streamerr.Corrupt(section, "section offset %d outside %d-byte stream", off, len(data))
	}
	rawLen, sz := binary.Uvarint(data[off:])
	if sz <= 0 {
		return nil, 0, streamerr.Truncated(section, "section length cut off").WithOffset(int64(off))
	}
	off += sz
	if rawLen == 0 {
		return nil, off, nil
	}
	if rawLen > maxDeflateRatio*uint64(len(data)-off)+64 {
		return nil, 0, streamerr.Corrupt(section, "raw length %d exceeds stream capacity", rawLen)
	}
	s := getScratch()
	defer putScratch(s)
	dir, off, err := parseChunkDirectory(s, data, off, int(rawLen), version, kindRaw, section)
	if err != nil {
		return nil, 0, err
	}
	if dir.total > len(data)-off {
		return nil, 0, streamerr.Truncated(section, "chunk payloads exceed stream length").WithOffset(int64(off))
	}
	payload := data[off : off+dir.total]
	raw := make([]byte, rawLen)
	workers = parallel.SizedWorkers(workers, dir.cc, int64(rawLen), entropyWorkerBytes)
	err = parallel.For(ctx, dir.cc, workers, 1, func(i int) error {
		if err := dir.verifyChunk(payload, i, section); err != nil {
			return err
		}
		lo, hi := dir.bound(i)
		pl := dir.payloadAt(payload, i)
		if dir.mode(i) == rawChunkStored {
			// checkChunkEntry pinned csize == extent, so this is a
			// straight copy.
			copy(raw[lo:hi], pl)
			return nil
		}
		ws := getScratch()
		err := ws.inflateInto(pl, raw[lo:hi])
		putScratch(ws)
		if err != nil {
			return streamerr.Wrap(streamerr.ErrCorrupt, section, err).WithChunk(i)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	c.Add(obs.CtrChunksDecoded, int64(dir.cc))
	return raw, off + dir.total, nil
}

// Verify checksum-scans a stream without decoding it: the header CRC, the
// whole-stream trailer, and every per-chunk checksum are verified, but no
// chunk is inflated and no symbol decoded, so scanning costs a small
// fraction of a full decompression. Streams older than v3 carry no
// checksums and are reported as ErrVersion.
func Verify(data []byte) (err error) {
	defer streamerr.Guard("cpsz", &err)
	hdr, off, end, err := parseHeader(data)
	if err != nil {
		return err
	}
	if data[4] < formatV3 {
		return streamerr.Version("cpsz", data[4]).WithOffset(4)
	}
	_ = hdr
	version := data[4]
	data = data[:end]
	for _, section := range []string{"eb-symbols", "quant-symbols"} {
		if off, err = scanSymbolSection(data, off, version, section); err != nil {
			return err
		}
	}
	if off, err = scanRawSection(data, off, version); err != nil {
		return err
	}
	if off != len(data) {
		return streamerr.Corrupt("cpsz stream", "%d trailing bytes after final section", len(data)-off).WithOffset(int64(off))
	}
	return nil
}

// scanSymbolSection walks one symbol section verifying chunk checksums
// without inflating or decoding.
func scanSymbolSection(data []byte, off int, version byte, section string) (int, error) {
	if off < 0 || off > len(data) {
		return 0, streamerr.Corrupt(section, "section offset %d outside %d-byte stream", off, len(data))
	}
	count, sz := binary.Uvarint(data[off:])
	if sz <= 0 {
		return 0, streamerr.Truncated(section, "symbol count cut off").WithOffset(int64(off))
	}
	off += sz
	if count == 0 {
		return off, nil
	}
	if count > 8*maxDeflateRatio*uint64(len(data)-off)+64 {
		return 0, streamerr.Corrupt(section, "symbol count %d exceeds stream capacity", count)
	}
	_, consumed, err := huffman.ParseTable(data[off:], count)
	if err != nil {
		return 0, streamerr.Wrap(streamerr.ErrCorrupt, section, err)
	}
	off += consumed
	s := getScratch()
	defer putScratch(s)
	dir, off, err := parseChunkDirectory(s, data, off, int(count), version, kindSymbols, section)
	if err != nil {
		return 0, err
	}
	if dir.total > len(data)-off {
		return 0, streamerr.Truncated(section, "chunk payloads exceed stream length").WithOffset(int64(off))
	}
	if err := scanChunks(&dir, data[off:off+dir.total], section); err != nil {
		return 0, err
	}
	return off + dir.total, nil
}

// scanRawSection walks the raw section verifying chunk checksums without
// inflating.
func scanRawSection(data []byte, off int, version byte) (int, error) {
	const section = "raw"
	if off < 0 || off > len(data) {
		return 0, streamerr.Corrupt(section, "section offset %d outside %d-byte stream", off, len(data))
	}
	rawLen, sz := binary.Uvarint(data[off:])
	if sz <= 0 {
		return 0, streamerr.Truncated(section, "section length cut off").WithOffset(int64(off))
	}
	off += sz
	if rawLen == 0 {
		return off, nil
	}
	if rawLen > maxDeflateRatio*uint64(len(data)-off)+64 {
		return 0, streamerr.Corrupt(section, "raw length %d exceeds stream capacity", rawLen)
	}
	s := getScratch()
	defer putScratch(s)
	dir, off, err := parseChunkDirectory(s, data, off, int(rawLen), version, kindRaw, section)
	if err != nil {
		return 0, err
	}
	if dir.total > len(data)-off {
		return 0, streamerr.Truncated(section, "chunk payloads exceed stream length").WithOffset(int64(off))
	}
	if err := scanChunks(&dir, data[off:off+dir.total], section); err != nil {
		return 0, err
	}
	return off + dir.total, nil
}

func scanChunks(dir *chunkDirectory, payload []byte, section string) error {
	return parallel.For(nil, dir.cc, 0, 1, func(i int) error {
		return dir.verifyChunk(payload, i, section)
	})
}

// deflate DEFLATE-compresses data into a fresh slice. Legacy test writers
// and one-shot callers use it; the hot path deflates through its scratch.
func deflate(data []byte) ([]byte, error) {
	s := getScratch()
	out, err := s.deflate(nil, data)
	putScratch(s)
	return out, err
}

// inflateCap inflates data, failing if the output exceeds max bytes; the
// cap turns decompression bombs into errors instead of allocations. Only
// the v1 path, which carries no uncompressed sizes, needs it.
func inflateCap(data []byte, max uint64) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out, err := io.ReadAll(io.LimitReader(r, int64(max)+1))
	if err != nil {
		return nil, err
	}
	if uint64(len(out)) > max {
		return nil, streamerr.Corrupt("inflate", "payload exceeds %d-byte cap", max)
	}
	return out, nil
}

func float64frombits(b uint64) float64 { return math.Float64frombits(b) }
