package cpsz

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"tspsz/internal/ebound"
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

// encChunk is one encoded chunk awaiting its section's write-out: its
// payload (a chunkBufPool buffer whose ownership transfers to the section
// writer), the uncompressed size and mode for the directory entry, and the
// payload CRC32C.
type encChunk struct {
	payload []byte
	usize   int
	mode    byte
	crc     uint32
}

// encodeSymChunk encodes one fixed-extent symbol chunk against the shared
// table into a pooled payload buffer (ownership of the returned payload
// transfers to the caller). The per-chunk mode decision depends only on
// the chunk contents and the table, never on scheduling, so archives are
// identical at any worker count.
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

// appendChunkDirectory appends the uvarint chunk count and one directory
// entry per chunk: uvarint uncompressed size, uvarint payload size, mode
// byte, payload CRC32C.
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

// regionRuns is where each region's streams wait, in region order, from
// the sweep until the section tables exist. The in-memory encoders hold
// the streams themselves (heldStreams); CompressStream holds a Huffman
// spill (streamSpill) and decodes one region's run at a time.
type regionRuns interface {
	// syms returns region r's symbols of symbol section si (0 eb, 1
	// quant).
	syms(si, r int) ([]uint32, error)
	// raw returns region r's verbatim bytes.
	raw(r int) ([]byte, error)
	// stable reports whether a returned run stays valid until its section
	// is sealed, so chunks may alias it; otherwise it is valid only until
	// the next call.
	stable() bool
}

// errRunsShort reports a broken engine invariant: the region runs hold
// fewer units than the section totals the sweep counted.
var errRunsShort = errors.New("cpsz: internal: region runs short of the swept section total")

// heldStreams keeps every region's streams as the sweep produced them.
type heldStreams []*regionStreams

func (h heldStreams) syms(si, r int) ([]uint32, error) {
	if r >= len(h) {
		return nil, errRunsShort
	}
	if si == 0 {
		return h[r].ebSyms, nil
	}
	return h[r].quantSyms, nil
}

func (h heldStreams) raw(r int) ([]byte, error) {
	if r >= len(h) {
		return nil, errRunsShort
	}
	return h[r].raw, nil
}

func (h heldStreams) stable() bool { return true }

// sectionTotals are the section histograms and lengths a sweep gathers
// region by region; they fix each section's Huffman table and chunk
// boundaries before any chunk is sealed.
type sectionTotals struct {
	hist  [2]huffman.Histogram // eb, quant
	nRaw  int
	marks int64 // fully lossless vertices
}

func (t *sectionTotals) observe(rs *regionStreams) {
	t.hist[0].Observe(rs.ebSyms)
	t.hist[1].Observe(rs.quantSyms)
	t.nRaw += len(rs.raw)
	t.marks += int64(len(rs.marks))
}

// seal writes one archive to w: the sealed header, the eb, quant and raw
// sections, and the whole-stream trailer, charging the byte-partition
// counters as it goes. Every encoder — the in-memory Lorenzo and
// interpolation paths and CompressStream — ends here. It returns the
// number of bytes written.
func seal(ctx context.Context, w io.Writer, hdr header, tot *sectionTotals, runs regionRuns, workers int, c *obs.Collector) (int64, error) {
	workers = parallel.Workers(workers)
	var tables [2]*huffman.Table
	for si := range tables {
		h := &tot.hist[si]
		if err := c.Do(obs.StageHistogram, 1, int64(h.Total()), func() error {
			tables[si] = huffman.TableFromHistogram(h)
			return nil
		}); err != nil {
			return 0, err
		}
	}
	cw := &crcCountWriter{w: w}
	err := c.Do(obs.StageEntropyEncode, workers, int64(tot.hist[0].Total()+tot.hist[1].Total()), func() error {
		head := appendHeader(make([]byte, 0, sealedHeaderBytes), hdr)
		if err := cw.write(head); err != nil {
			return err
		}
		c.Add(obs.CtrBytesStreamHeader, int64(len(head)))
		for si, ctr := range [...]obs.Counter{obs.CtrBytesSectionEb, obs.CtrBytesSectionQuant} {
			mark, table := cw.n, tables[si]
			if err := sealSection(ctx, cw, int(tot.hist[si].Total()), chunkSymbols, 4, table, workers, runs.stable(),
				func(r int) ([]uint32, error) { return runs.syms(si, r) },
				func(chunk []uint32) (encChunk, error) { return encodeSymChunk(table, chunk) }, c); err != nil {
				return err
			}
			c.Add(ctr, cw.n-mark)
		}
		mark := cw.n
		if err := sealSection(ctx, cw, tot.nRaw, chunkRawBytes, 1, nil, workers, runs.stable(), runs.raw, encodeRawChunk, c); err != nil {
			return err
		}
		c.Add(obs.CtrBytesSectionRaw, cw.n-mark)
		// The trailer: the length of everything before it, then the CRC32C
		// of all preceding bytes, the length field included, so a tampered
		// length fails the checksum too.
		var tr [trailerBytes]byte
		binary.LittleEndian.PutUint64(tr[:8], uint64(cw.n))
		if err := cw.write(tr[:8]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(tr[8:], cw.crc)
		if err := cw.write(tr[8:]); err != nil {
			return err
		}
		c.Add(obs.CtrBytesStreamTrailer, trailerBytes)
		c.Add(obs.CtrBytesOut, cw.n)
		return nil
	})
	return cw.n, err
}

// sealSection writes one section of n units: uvarint unit count, the
// codebook of a symbol section, the chunk directory, then the chunk
// payloads. Chunk boundaries come from n alone. A parallel.Pipeline
// encodes the chunks: its serial prepare stage takes the next chunk from
// the region runs in region order — a view when the chunk lies inside one
// stable run, otherwise gathered into one of window reused buffers (the
// pipeline never holds more than window chunks in flight, so no buffer is
// refilled before its chunk is encoded) — and its workers encode each
// chunk into that chunk's slot. A chunk's mode and bytes depend only on
// its contents and the table, so the section is identical at any worker
// count.
func sealSection[E uint32 | byte](ctx context.Context, cw *crcCountWriter, n, extent, unitBytes int, table *huffman.Table, workers int, stable bool,
	run func(r int) ([]E, error), encode func([]E) (encChunk, error), c *obs.Collector) error {
	if n == 0 {
		return cw.write([]byte{0}) // an empty section is its zero count
	}
	cc := chunkCount(n, extent)
	// Sized for the widest uvarints, so the section head is built in place.
	const v = binary.MaxVarintLen64
	headBytes := 2*v + cc*(2*v+5)
	if table != nil {
		headBytes += v + table.Len()*(v+1)
	}
	head := binary.AppendUvarint(make([]byte, 0, headBytes), uint64(n))
	if table != nil {
		head = table.AppendTable(head)
	}
	workers = parallel.SizedWorkers(workers, cc, int64(unitBytes)*int64(n), entropyWorkerBytes)
	window := 2 * workers
	bufs := make([][]E, window)
	chunks := make([]encChunk, cc)
	var cur []E // the unread rest of region run next-1
	next := 0
	// take returns the next at most limit units of the concatenated runs.
	take := func(limit int) ([]E, error) {
		for len(cur) == 0 {
			var err error
			if cur, err = run(next); err != nil {
				return nil, err
			}
			next++
		}
		part := cur[:min(limit, len(cur))]
		cur = cur[len(part):]
		return part, nil
	}
	err := parallel.Pipeline(ctx, cc, workers, window,
		func(i int) ([]E, error) {
			lo, hi := chunkBound(n, cc, i)
			part, err := take(hi - lo)
			if err != nil || (stable && len(part) == hi-lo) {
				return part, err
			}
			if bufs[i%window] == nil {
				bufs[i%window] = make([]E, 0, (n+cc-1)/cc)
			}
			buf := append(bufs[i%window][:0], part...)
			for len(buf) < hi-lo {
				if part, err = take(hi - lo - len(buf)); err != nil {
					return nil, err
				}
				buf = append(buf, part...)
			}
			return buf, nil
		},
		func(i int, chunk []E) (struct{}, error) {
			e, err := encode(chunk)
			chunks[i] = e
			return struct{}{}, err
		},
		func(int, struct{}) error { return nil })
	if err == nil && len(cur) != 0 {
		err = errors.New("cpsz: internal: region runs exceed the swept section total")
	}
	if err != nil {
		repoolChunks(chunks)
		return err
	}
	if err := cw.write(appendChunkDirectory(head, chunks)); err != nil {
		repoolChunks(chunks)
		return err
	}
	c.Add(obs.CtrChunksEncoded, int64(cc))
	return writeChunkPayloads(cw, chunks)
}

// crcCountWriter forwards to w while keeping the running CRC32C and byte
// count the trailer needs; the whole stream is written exactly once, never
// buffered for a second checksum pass.
type crcCountWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (cw *crcCountWriter) write(p []byte) error {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	cw.n += int64(n)
	if err != nil {
		return err
	}
	if n != len(p) {
		return io.ErrShortWrite
	}
	return nil
}

// writeChunkPayloads writes every payload in order, returning each pooled
// buffer exactly once whether or not its write succeeds.
func writeChunkPayloads(cw *crcCountWriter, chunks []encChunk) error {
	for i := range chunks {
		err := cw.write(chunks[i].payload)
		putChunkBuf(chunks[i].payload)
		chunks[i].payload = nil
		if err != nil {
			return err
		}
	}
	return nil
}
