package cpsz

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"

	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/huffman"
	"tspsz/internal/obs"
	"tspsz/internal/parallel"
)

const streamMagic = "CPSZ"

// formatVersion is the one stream format this build writes and reads (v4).
// Every section is sharded into fixed-extent chunks coded against a shared
// per-section codebook, so both directions run the entropy stage in
// parallel (§VII). The stream is tamper-evident: a CRC32C over the fixed
// header, a per-chunk CRC32C column in each chunk directory (verified
// inside the parallel chunk workers, so integrity costs no extra pass), and
// a whole-stream trailer carrying the payload length plus a CRC32C over
// everything before it. A per-chunk mode byte picks the chunk coding: a
// symbol chunk whose range fits k bits, and for which Huffman coding would
// gain less than ~5% over raw k-bit packing, is stored bit-packed (mode 1)
// instead of Huffman+DEFLATE (mode 0), turning its decode into a
// branch-light fixed-width loop; raw-section chunks that DEFLATE would
// expand are stored verbatim (mode 1). Within mode 0 the entropy-coded bits
// are deflated only when that shrinks them — usize == csize marks a chunk
// whose payload is the bitstream itself — so the common decode path touches
// no flate state at all. Any other version byte is ErrVersion.
const formatVersion = 4

// Per-chunk modes of the directory. Symbol sections: Huffman+DEFLATE or
// fixed-width bit packing. Raw section: DEFLATE or stored verbatim.
const (
	symChunkHuffman = 0
	symChunkPacked  = 1
	rawChunkDeflate = 0
	rawChunkStored  = 1
	maxChunkMode    = 1
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
// theoretical maximum is ~1032:1). A directory entry claiming more
// uncompressed bytes than this multiple of its payload is a decompression
// bomb, not a valid archive.
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

// headerBytes is the fixed header (magic, version, dimension, mode,
// predictor, three u32 axis lengths, f64 error bound); sealedHeaderBytes
// adds the CRC32C over it. trailerBytes is the whole-stream trailer: a
// little-endian u64 payload length (everything before the trailer)
// followed by the CRC32C of those bytes.
const (
	headerBytes       = 28
	sealedHeaderBytes = headerBytes + 4
	trailerBytes      = 12
)

// serialize assembles the final stream: CRC-sealed header, chunked
// mode-tagged symbol sections with per-chunk checksums, a chunked raw-float
// section, and the whole-stream trailer. This mirrors SZ's Huffman +
// lossless-backend pipeline with the entropy stage sharded across
// opts.Workers.
func serialize(ctx context.Context, f *field.Field, opts Options, ebSyms, quantSyms []uint32, raw []byte) ([]byte, error) {
	c := opts.Collector
	workers := parallel.Workers(opts.Workers)
	out := make([]byte, 0, sealedHeaderBytes+len(raw)/2+(len(ebSyms)+len(quantSyms))/4)
	nx, ny, nz := f.Grid.Dims()
	out = appendHeader(out, header{
		dim: f.Dim(), nx: nx, ny: ny, nz: nz, mode: opts.Mode, predictor: opts.Predictor,
		temporal: opts.Reference != nil, errBound: opts.ErrBound,
	})
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

// appendHeader appends h as the sealed fixed header that readHeader reads
// back: the headerBytes fields, then their CRC32C.
func appendHeader(dst []byte, h header) []byte {
	start := len(dst)
	pb := byte(h.predictor)
	if h.temporal {
		pb |= temporalFlag
	}
	dst = append(dst, streamMagic...)
	dst = append(dst, formatVersion, byte(h.dim), byte(h.mode), pb)
	for _, v := range []uint32{uint32(h.nx), uint32(h.ny), uint32(h.nz)} {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.errBound))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
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

// appendSymbolSection writes one symbol section: uvarint symbol count,
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

// mergeChunks appends the chunk directory to dst, then copies every chunk
// payload into its pre-computed disjoint extent of a single grown region —
// concurrently, since the extents are a prefix-sum partition — instead of
// appending payloads one by one. Payload buffers return to the pool once
// copied, also when a copy worker panics.
func mergeChunks(dst []byte, outs []encChunk, workers int) ([]byte, error) {
	dst = appendChunkDirectory(dst, outs)
	total := 0
	for i := range outs {
		outs[i].off = total
		total += len(outs[i].payload)
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

// appendChunkDirectory appends the uvarint chunk count and one directory
// entry per chunk: uvarint uncompressed size, uvarint payload size, mode
// byte, payload CRC32C. Both writers use it, so their directories are
// byte-identical by construction.
func appendChunkDirectory(dst []byte, chunks []encChunk) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(chunks)))
	for i := range chunks {
		dst = binary.AppendUvarint(dst, uint64(chunks[i].usize))
		dst = binary.AppendUvarint(dst, uint64(len(chunks[i].payload)))
		dst = append(dst, chunks[i].mode)
		dst = binary.LittleEndian.AppendUint32(dst, chunks[i].crc)
	}
	return dst
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
