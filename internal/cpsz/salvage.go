package cpsz

// Salvage decode: best-effort recovery of damaged v3/v4 archives. The
// per-chunk CRC32C directory pinpoints exactly which chunks of each section
// are damaged, so instead of failing on the first ErrCorrupt the salvage
// path decodes every chunk that verifies, zero-fills the fixed extents of
// the ones that do not, and reports precisely what was lost. Reconstruction
// then replays the Lorenzo scan and taints (zeroes and marks damaged) the
// smallest suffix of regions whose stream offsets can no longer be trusted:
//
//   - The error-bound symbol stream consumes a fixed number of symbols per
//     vertex, so its alignment never depends on damaged values — but the
//     quant and raw cursors are driven by eb symbol *values*, so the first
//     damaged eb symbol taints every region from that vertex onward.
//   - The quant stream's own alignment depends only on eb values, but raw
//     consumption depends on quant values, so the first damaged quant
//     symbol equally taints everything after it.
//   - Damaged raw bytes never affect alignment at all: only the regions
//     whose raw windows overlap a damaged extent are lost; everything else
//     reconstructs bit-exactly.
//
// Vertices of tainted or raw-damaged regions stay zero and are marked in
// the report's Damaged bitmap; every other vertex is bit-identical to a
// clean decode.

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"

	"tspsz/internal/bitmap"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/huffman"
	"tspsz/internal/parallel"
	"tspsz/internal/quantizer"
	"tspsz/internal/streamerr"
)

// SectionSalvage reports the salvage outcome of one stream section.
type SectionSalvage struct {
	// Name is the section name: "eb-symbols", "quant-symbols", or "raw".
	Name string
	// Chunks is the chunk count the section directory declares (0 for an
	// empty or lost section).
	Chunks int
	// DamagedChunks lists the indexes of chunks whose checksum or decode
	// failed, ascending. DamagedOffsets holds the absolute stream offset of
	// each damaged chunk's payload, index-aligned with DamagedChunks.
	DamagedChunks  []int
	DamagedOffsets []int64
	// BytesRecovered sums the compressed payload bytes of every chunk that
	// verified and decoded.
	BytesRecovered int
	// Lost marks a section whose framing (symbol count, codebook, or chunk
	// directory) was unreadable, so no chunk of it — nor of any later
	// section — could be located. LostReason says why.
	Lost       bool
	LostReason string
}

// Damaged reports whether any chunk of the section failed, or the whole
// section was lost.
func (s *SectionSalvage) Damaged() bool { return s.Lost || len(s.DamagedChunks) > 0 }

// SalvageReport is the outcome of a salvage decode: what was recovered,
// what was lost, and exactly where the losses sit.
type SalvageReport struct {
	// Sections reports the three sections in stream order: eb-symbols,
	// quant-symbols, raw.
	Sections []SectionSalvage
	// SealBroken marks a whole-stream trailer that failed to verify (or
	// lied about the payload length). Chunk checksums still localize
	// damage, but damage outside the checksummed payloads cannot be
	// detected.
	SealBroken bool
	// TotalVertices and DamagedVertices count the field and the vertices
	// that could not be recovered (left zero). Damaged marks each of them.
	// Only Salvage fills these; SalvageParse leaves them zero.
	TotalVertices   int
	DamagedVertices int
	Damaged         *bitmap.Bitmap

	// extents holds, per section, the damaged unit ranges (symbol indexes
	// or raw byte offsets) the reconstruction taints against.
	extents [3][][2]int
}

// Clean reports a salvage that recovered everything: seal intact, no chunk
// damaged, no section lost, no vertex zero-filled.
func (r *SalvageReport) Clean() bool {
	if r.SealBroken || r.DamagedVertices > 0 {
		return false
	}
	for i := range r.Sections {
		if r.Sections[i].Damaged() {
			return false
		}
	}
	return true
}

// anyDamage reports whether any section lost a chunk or its framing.
func (r *SalvageReport) anyDamage() bool {
	for i := range r.Sections {
		if r.Sections[i].Damaged() {
			return true
		}
	}
	return false
}

// firstBad returns the first damaged unit index of section si, or maxInt
// when it is fully intact. A lost section is damaged from unit 0.
func (r *SalvageReport) firstBad(si int) int {
	if r.Sections[si].Lost {
		return 0
	}
	if len(r.extents[si]) == 0 {
		return math.MaxInt
	}
	return r.extents[si][0][0]
}

// overlapsDamage reports whether [lo, hi) intersects a damaged extent of
// section si.
func (r *SalvageReport) overlapsDamage(si, lo, hi int) bool {
	for _, e := range r.extents[si] {
		if lo < e[1] && e[0] < hi {
			return true
		}
	}
	return false
}

// sectionNames is the fixed section order of the stream format.
var sectionNames = [3]string{"eb-symbols", "quant-symbols", "raw"}

// Salvage is the best-effort counterpart of Decompress for v3+ streams:
// every chunk whose checksum verifies is decoded, damaged extents are
// zero-filled, and the returned report says exactly which chunks and which
// vertices were lost. Vertices not marked damaged are bit-identical to a
// clean decode. The report is non-nil whenever the fixed header was
// readable, even alongside a non-nil error; pre-v3 streams carry no
// per-chunk checksums and fail with ErrVersion.
func Salvage(data []byte, workers int) (*field.Field, *SalvageReport, error) {
	return SalvageCtx(nil, data, workers)
}

// SalvageCtx is Salvage with cancellation (see DecompressCtx). A nil ctx
// never cancels.
func SalvageCtx(ctx context.Context, data []byte, workers int) (f *field.Field, rep *SalvageReport, err error) {
	defer streamerr.Guard("cpsz", &err)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	hdr, ebSyms, quantSyms, raw, rep, err := salvageParse(ctx, data, workers)
	if err != nil {
		return nil, rep, err
	}
	if hdr.temporal {
		return nil, rep, streamerr.Header("cpsz header", "stream is temporally predicted; salvage needs the reference frame")
	}
	// The eb section is the allocation bound: every vertex consumes at
	// least one eb symbol, so with it lost nothing bounds the field the
	// header claims — and nothing could be recovered anyway.
	if rep.Sections[0].Lost {
		return nil, rep, streamerr.Corrupt("eb-symbols", "section unreadable, nothing to salvage: %s", rep.Sections[0].LostReason)
	}
	if uint64(hdr.nx)*uint64(hdr.ny) > uint64(len(ebSyms)) {
		return nil, rep, streamerr.Corrupt("cpsz header", "header dims exceed symbol stream")
	}
	if hdr.dim == 2 {
		if hdr.nx < 2 || hdr.ny < 2 {
			return nil, rep, streamerr.Header("cpsz header", "invalid 2D dims %dx%d", hdr.nx, hdr.ny)
		}
		f = field.New2D(hdr.nx, hdr.ny)
	} else {
		if uint64(hdr.nx)*uint64(hdr.ny)*uint64(hdr.nz) > uint64(len(ebSyms)) {
			return nil, rep, streamerr.Corrupt("cpsz header", "header dims exceed symbol stream")
		}
		if hdr.nx < 2 || hdr.ny < 2 || hdr.nz < 2 {
			return nil, rep, streamerr.Header("cpsz header", "invalid 3D dims %dx%dx%d", hdr.nx, hdr.ny, hdr.nz)
		}
		f = field.New3D(hdr.nx, hdr.ny, hdr.nz)
	}
	rep.TotalVertices = f.NumVertices()
	rep.Damaged = bitmap.New(f.NumVertices())
	if err := salvageReconstruct(ctx, f, hdr, ebSyms, quantSyms, raw, workers, rep); err != nil {
		return nil, rep, err
	}
	rep.DamagedVertices = rep.Damaged.Count()
	return f, rep, nil
}

// SalvageParse is the parse-only stage of Salvage: it tolerantly decodes
// the three sections of a v3+ stream, zero-filling the extents of damaged
// chunks, and reports per-chunk damage without reconstructing a field (the
// report's vertex fields stay zero). Lost sections return nil streams.
func SalvageParse(data []byte, workers int) (ebSyms, quantSyms []uint32, raw []byte, rep *SalvageReport, err error) {
	defer streamerr.Guard("cpsz", &err)
	_, ebSyms, quantSyms, raw, rep, err = salvageParse(nil, data, workers)
	return ebSyms, quantSyms, raw, rep, err
}

// salvageParse walks the stream tolerantly: chunk-level failures zero-fill
// and record; a section whose framing is unreadable is marked Lost along
// with every later section (their offsets are unknowable). Only header
// damage, pre-v3 streams, and cancellation are hard errors.
func salvageParse(ctx context.Context, data []byte, workers int) (hdr header, ebSyms, quantSyms []uint32, raw []byte, rep *SalvageReport, err error) {
	hdr, off, end, sealBroken, err := salvageHeader(data)
	if err != nil {
		return hdr, nil, nil, nil, nil, err
	}
	rep = &SalvageReport{SealBroken: sealBroken, Sections: make([]SectionSalvage, 3)}
	version := data[4]
	body := data[:end]
	lostFrom := 3
	var lostErr error
	for si := 0; si < 3 && lostFrom == 3; si++ {
		var serr error
		var dmg SectionSalvage
		var extents [][2]int
		if si < 2 {
			var syms []uint32
			syms, off, dmg, extents, serr = salvageSymbolSection(ctx, body, off, workers, version, sectionNames[si])
			if si == 0 {
				ebSyms = syms
			} else {
				quantSyms = syms
			}
		} else {
			raw, off, dmg, extents, serr = salvageRawSection(ctx, body, off, workers, version)
		}
		if serr != nil {
			if streamerr.IsContextErr(serr) {
				return hdr, nil, nil, nil, rep, serr
			}
			lostFrom, lostErr = si, serr
			continue
		}
		rep.Sections[si] = dmg
		rep.extents[si] = extents
	}
	for si := lostFrom; si < 3; si++ {
		reason := "preceding section unreadable, offset unknown"
		if si == lostFrom {
			reason = lostErr.Error()
		}
		rep.Sections[si] = SectionSalvage{Name: sectionNames[si], Lost: true, LostReason: reason}
		rep.extents[si] = nil
	}
	return hdr, ebSyms, quantSyms, raw, rep, nil
}

// salvageHeader is parseHeader for the salvage path: the fixed header and
// its CRC must verify (damaged dims cannot be trusted), but a broken
// whole-stream trailer is tolerated — the trailer is fixed-size at the very
// end of the stream, so the section bytes are still located exactly and the
// chunk checksums still localize damage. Pre-v3 streams carry no checksums
// at all, so salvage cannot tell good chunks from bad and reports
// ErrVersion.
func salvageHeader(data []byte) (hdr header, off, end int, sealBroken bool, err error) {
	if len(data) < headerBytes {
		return hdr, 0, 0, false, streamerr.Truncated("cpsz header", "%d of %d fixed-header bytes", len(data), headerBytes)
	}
	if string(data[:4]) != streamMagic {
		return hdr, 0, 0, false, streamerr.Header("cpsz header", "bad magic, not a cpSZ stream")
	}
	version := data[4]
	if version < formatV1 || version > formatV4 {
		return hdr, 0, 0, false, streamerr.Version("cpsz header", version)
	}
	if version < formatV3 {
		return hdr, 0, 0, false, streamerr.Version("cpsz header", version).WithOffset(4)
	}
	if len(data) < headerBytesV3+trailerBytes {
		return hdr, 0, 0, false, streamerr.Truncated("cpsz header", "%d bytes, v%d needs at least %d", len(data), version, headerBytesV3+trailerBytes)
	}
	stored := binary.LittleEndian.Uint32(data[headerBytes:])
	if got := crc32.Checksum(data[:headerBytes], crcTable); got != stored {
		return hdr, 0, 0, false, streamerr.Corrupt("cpsz header", "header CRC32C %08x, stored %08x; a damaged fixed header cannot be salvaged", got, stored)
	}
	off = headerBytesV3
	end, err = verifyTrailer(data)
	if err != nil {
		sealBroken = true
		end = len(data) - trailerBytes
	}
	hdr.dim = int(data[5])
	hdr.mode = ebound.Mode(data[6])
	hdr.temporal = data[7]&temporalFlag != 0
	hdr.predictor = Predictor(data[7] &^ temporalFlag)
	if hdr.predictor != PredictorLorenzo && hdr.predictor != PredictorInterpolation {
		return hdr, 0, 0, sealBroken, streamerr.Header("cpsz header", "unknown predictor %d", hdr.predictor)
	}
	hdr.nx = int(binary.LittleEndian.Uint32(data[8:]))
	hdr.ny = int(binary.LittleEndian.Uint32(data[12:]))
	hdr.nz = int(binary.LittleEndian.Uint32(data[16:]))
	hdr.errBound = float64frombits(binary.LittleEndian.Uint64(data[20:]))
	if hdr.dim != 2 && hdr.dim != 3 {
		return hdr, 0, 0, sealBroken, streamerr.Header("cpsz header", "invalid dimension %d", hdr.dim)
	}
	return hdr, off, end, sealBroken, nil
}

// salvageSymbolSection mirrors parseSymbolSection but contains every
// per-chunk failure: a chunk whose checksum or decode fails leaves its
// extent zero and is recorded instead of aborting. Structural failures
// (count, codebook, directory) return an error — the caller marks the
// section lost. Only cancellation escapes the chunk loop.
func salvageSymbolSection(ctx context.Context, data []byte, off, workers int, version byte, section string) ([]uint32, int, SectionSalvage, [][2]int, error) {
	dmg := SectionSalvage{Name: section}
	if off < 0 || off > len(data) {
		return nil, 0, dmg, nil, streamerr.Corrupt(section, "section offset %d outside %d-byte stream", off, len(data))
	}
	count, sz := binary.Uvarint(data[off:])
	if sz <= 0 {
		return nil, 0, dmg, nil, streamerr.Truncated(section, "symbol count cut off").WithOffset(int64(off))
	}
	off += sz
	if count == 0 {
		return nil, off, dmg, nil, nil
	}
	if count > 8*maxDeflateRatio*uint64(len(data)-off)+64 {
		return nil, 0, dmg, nil, streamerr.Corrupt(section, "symbol count %d exceeds stream capacity", count)
	}
	table, consumed, err := huffman.ParseTable(data[off:], count)
	if err != nil {
		return nil, 0, dmg, nil, streamerr.Wrap(streamerr.ErrCorrupt, section, err)
	}
	off += consumed
	s := getScratch()
	defer putScratch(s)
	dir, off, err := parseChunkDirectory(s, data, off, int(count), version, kindSymbols, section)
	if err != nil {
		return nil, 0, dmg, nil, err
	}
	if dir.total > len(data)-off {
		return nil, 0, dmg, nil, streamerr.Truncated(section, "chunk payloads exceed stream length").WithOffset(int64(off))
	}
	payload := data[off : off+dir.total]
	out := make([]uint32, count)
	damaged := make([]bool, dir.cc)
	workers = parallel.SizedWorkers(workers, dir.cc, 4*int64(count), entropyWorkerBytes)
	err = parallel.For(ctx, dir.cc, workers, 1, func(i int) error {
		lo, hi := dir.bound(i)
		// A decode failure of any flavour — checksum, inflate, entropy,
		// even a contained panic from hostile-but-checksummed bytes — marks
		// this one chunk damaged and re-zeroes its extent; neighbours are
		// unaffected.
		defer func() {
			if recover() != nil {
				damaged[i] = true
			}
			if damaged[i] {
				clear(out[lo:hi])
			}
		}()
		if dir.verifyChunk(payload, i, section) != nil {
			damaged[i] = true
			return nil
		}
		pl := dir.payloadAt(payload, i)
		if dir.mode(i) == symChunkPacked {
			if decodePackedChunk(pl, out[lo:hi], section, i) != nil {
				damaged[i] = true
			}
			return nil
		}
		ws := getScratch()
		var derr error
		bits := pl
		if version < formatV4 || len(pl) != dir.usizes[i] {
			bits = ws.buf(dir.usizes[i])
			derr = ws.inflateInto(pl, bits)
		}
		if derr == nil {
			derr = table.DecodeChunk(bits, out[lo:hi])
		}
		putScratch(ws)
		if derr != nil {
			damaged[i] = true
		}
		return nil
	})
	if err != nil {
		return nil, 0, dmg, nil, err // only cancellation reaches here
	}
	extents := collectDamage(&dmg, &dir, int64(off), damaged)
	return out, off + dir.total, dmg, extents, nil
}

// salvageRawSection is salvageSymbolSection for the verbatim-float section;
// damaged extents are byte ranges of the raw stream.
func salvageRawSection(ctx context.Context, data []byte, off, workers int, version byte) ([]byte, int, SectionSalvage, [][2]int, error) {
	const section = "raw"
	dmg := SectionSalvage{Name: section}
	if off < 0 || off > len(data) {
		return nil, 0, dmg, nil, streamerr.Corrupt(section, "section offset %d outside %d-byte stream", off, len(data))
	}
	rawLen, sz := binary.Uvarint(data[off:])
	if sz <= 0 {
		return nil, 0, dmg, nil, streamerr.Truncated(section, "section length cut off").WithOffset(int64(off))
	}
	off += sz
	if rawLen == 0 {
		return nil, off, dmg, nil, nil
	}
	if rawLen > maxDeflateRatio*uint64(len(data)-off)+64 {
		return nil, 0, dmg, nil, streamerr.Corrupt(section, "raw length %d exceeds stream capacity", rawLen)
	}
	s := getScratch()
	defer putScratch(s)
	dir, off, err := parseChunkDirectory(s, data, off, int(rawLen), version, kindRaw, section)
	if err != nil {
		return nil, 0, dmg, nil, err
	}
	if dir.total > len(data)-off {
		return nil, 0, dmg, nil, streamerr.Truncated(section, "chunk payloads exceed stream length").WithOffset(int64(off))
	}
	payload := data[off : off+dir.total]
	raw := make([]byte, rawLen)
	damaged := make([]bool, dir.cc)
	workers = parallel.SizedWorkers(workers, dir.cc, int64(rawLen), entropyWorkerBytes)
	err = parallel.For(ctx, dir.cc, workers, 1, func(i int) error {
		lo, hi := dir.bound(i)
		defer func() {
			if recover() != nil {
				damaged[i] = true
			}
			if damaged[i] {
				clear(raw[lo:hi])
			}
		}()
		if dir.verifyChunk(payload, i, section) != nil {
			damaged[i] = true
			return nil
		}
		pl := dir.payloadAt(payload, i)
		if dir.mode(i) == rawChunkStored {
			copy(raw[lo:hi], pl)
			return nil
		}
		ws := getScratch()
		derr := ws.inflateInto(pl, raw[lo:hi])
		putScratch(ws)
		if derr != nil {
			damaged[i] = true
		}
		return nil
	})
	if err != nil {
		return nil, 0, dmg, nil, err
	}
	extents := collectDamage(&dmg, &dir, int64(off), damaged)
	return raw, off + dir.total, dmg, extents, nil
}

// collectDamage folds the per-chunk damage flags into the section report —
// indexes, absolute payload offsets, and the recovered-byte tally — and
// returns the damaged unit extents for reconstruction tainting.
func collectDamage(dmg *SectionSalvage, dir *chunkDirectory, payBase int64, damaged []bool) [][2]int {
	dmg.Chunks = dir.cc
	var extents [][2]int
	for i, bad := range damaged {
		csize := dir.total - dir.offsets[i]
		if i+1 < dir.cc {
			csize = dir.offsets[i+1] - dir.offsets[i]
		}
		if !bad {
			dmg.BytesRecovered += csize
			continue
		}
		lo, hi := dir.bound(i)
		dmg.DamagedChunks = append(dmg.DamagedChunks, i)
		dmg.DamagedOffsets = append(dmg.DamagedOffsets, payBase+int64(dir.offsets[i]))
		extents = append(extents, [2]int{lo, hi})
	}
	return extents
}

// salvageReconstruct rebuilds the field from the salvaged streams, marking
// every unrecoverable vertex in rep.Damaged. The interpolation predictor
// reconstructs strictly serially with global error feedback, so any damage
// at all loses the whole frame; the Lorenzo path recovers region by region.
func salvageReconstruct(ctx context.Context, f *field.Field, hdr header, ebSyms, quantSyms []uint32, raw []byte, workers int, rep *SalvageReport) error {
	if hdr.predictor == PredictorInterpolation {
		if !rep.anyDamage() {
			return reconstructInterp(f, hdr, ebSyms, quantSyms, raw)
		}
		markAllDamaged(rep.Damaged)
		return nil
	}
	return salvageLorenzo(ctx, f, hdr, ebSyms, quantSyms, raw, workers, rep)
}

// salvageLorenzo is reconstructLorenzo with taint tracking (see the package
// comment at the top of this file for the alignment argument).
func salvageLorenzo(ctx context.Context, f *field.Field, hdr header, ebSyms, quantSyms []uint32, raw []byte, workers int, rep *SalvageReport) error {
	firstBadEb := rep.firstBad(0)
	firstBadQuant := rep.firstBad(1)
	rawLost := rep.Sections[2].Lost

	interiors, boundaries := partition(f.Grid)
	regions := append(append([]region{}, interiors...), boundaries...)
	offsets := make([]regionOffsets, len(regions)+1)
	nComps := len(f.Components())
	cur := regionOffsets{}
	taintFrom := len(regions)
scan:
	for ri, r := range regions {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		offsets[ri] = cur
		nv := r.numVertices()
		for v := 0; v < nv; v++ {
			if hdr.mode == ebound.Absolute {
				if cur.eb >= firstBadEb || cur.eb >= len(ebSyms) {
					taintFrom = ri
					break scan
				}
				sym := ebSyms[cur.eb]
				cur.eb++
				if sym == absLosslessSym {
					cur.raw += 4 * nComps
					continue
				}
				if sym > absLosslessSym {
					taintFrom = ri
					break scan
				}
				for c := 0; c < nComps; c++ {
					if cur.quant >= firstBadQuant || cur.quant >= len(quantSyms) {
						taintFrom = ri
						break scan
					}
					if quantSyms[cur.quant] == quantizer.UnpredictableSym {
						cur.raw += 4
					}
					cur.quant++
				}
				continue
			}
			for c := 0; c < nComps; c++ {
				if cur.eb >= firstBadEb || cur.eb >= len(ebSyms) {
					taintFrom = ri
					break scan
				}
				sym := ebSyms[cur.eb]
				cur.eb++
				if sym == relExactSym {
					cur.raw += 4
					continue
				}
				if sym > relBias+relExpCap+1 {
					taintFrom = ri
					break scan
				}
				if cur.quant >= firstBadQuant || cur.quant >= len(quantSyms) {
					taintFrom = ri
					break scan
				}
				if quantSyms[cur.quant] == quantizer.UnpredictableSym {
					cur.raw += 4
				}
				cur.quant++
			}
		}
	}
	if taintFrom == len(regions) {
		offsets[len(regions)] = cur
		if cur.eb != len(ebSyms) || cur.quant != len(quantSyms) || (!rawLost && cur.raw != len(raw)) {
			if !rep.anyDamage() {
				// No chunk was damaged, yet the symbols disagree with the
				// field shape: that is stream-level corruption salvage
				// cannot localize — the same failure a clean decode
				// reports.
				return errBadSymbols
			}
			taintFrom = 0
		}
	}

	// Untainted regions have exact stream offsets; each reconstructs unless
	// its raw window touches a damaged raw extent (or runs past the raw
	// stream, which only an inconsistent-but-checksummed stream can cause).
	damagedRegion := make([]bool, len(regions))
	for ri := taintFrom; ri < len(regions); ri++ {
		damagedRegion[ri] = true
	}
	for ri := 0; ri < taintFrom; ri++ {
		lo, hi := offsets[ri].raw, offsets[ri+1].raw
		if hi > len(raw) || (rawLost && hi > lo) || rep.overlapsDamage(2, lo, hi) {
			damagedRegion[ri] = true
		}
	}
	err := parallel.For(ctx, len(regions), workers, 1, func(ri int) error {
		if damagedRegion[ri] {
			return nil
		}
		return reconstructRegion(f, nil, regions[ri], hdr, ebSyms, quantSyms, raw, offsets[ri])
	})
	if err != nil {
		return err
	}
	nx, ny, _ := f.Grid.Dims()
	for ri, bad := range damagedRegion {
		if bad {
			markRegionDamaged(rep.Damaged, regions[ri], nx, nx*ny)
		}
	}
	return nil
}

// markRegionDamaged sets the bitmap bit of every vertex in r.
func markRegionDamaged(bm *bitmap.Bitmap, r region, nx, nxny int) {
	for k := r.lo[2]; k < r.hi[2]; k++ {
		for j := r.lo[1]; j < r.hi[1]; j++ {
			base := j*nx + k*nxny
			for i := r.lo[0]; i < r.hi[0]; i++ {
				bm.Set(i + base)
			}
		}
	}
}

// markAllDamaged sets every bit.
func markAllDamaged(bm *bitmap.Bitmap) {
	for i := 0; i < bm.Len(); i++ {
		bm.Set(i)
	}
}
