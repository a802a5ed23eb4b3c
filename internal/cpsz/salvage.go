package cpsz

// Salvage decode: best-effort recovery of damaged archives. The
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
	"math"

	"tspsz/internal/bitmap"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
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
	return !r.SealBroken && r.DamagedVertices == 0 && !r.anyDamage()
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

// Salvage is the best-effort counterpart of Decompress: every chunk whose
// checksum verifies is decoded, damaged extents are zero-filled, and the
// returned report says exactly which chunks and which vertices were lost.
// Vertices not marked damaged are bit-identical to a clean decode. The
// report is non-nil whenever the fixed header was readable, even alongside
// a non-nil error; a damaged fixed header, or a version byte other than the
// one format this build reads (ErrVersion), cannot be salvaged.
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

// salvageParse walks the stream tolerantly: the fixed header must verify,
// a broken seal is recorded, chunk-level failures zero-fill and record,
// and a section whose framing is unreadable is marked Lost along with
// every later section (their offsets are unknowable). Only header damage
// and cancellation are hard errors.
func salvageParse(ctx context.Context, data []byte, workers int) (hdr header, ebSyms, quantSyms []uint32, raw []byte, rep *SalvageReport, err error) {
	hdr, seal, err := readHeader(data)
	if err != nil {
		return hdr, nil, nil, nil, nil, err
	}
	rep = &SalvageReport{SealBroken: seal != nil, Sections: make([]SectionSalvage, len(sectionNames))}
	s := getScratch()
	defer putScratch(s)
	body := data[:len(data)-trailerBytes]
	off := sealedHeaderBytes
	for si := range sectionNames {
		sec, next, serr := readSection(s, body, off, si)
		if serr != nil {
			rep.Sections[si] = SectionSalvage{Name: sectionNames[si], Lost: true, LostReason: serr.Error()}
			for later := si + 1; later < len(sectionNames); later++ {
				rep.Sections[later] = SectionSalvage{Name: sectionNames[later], Lost: true, LostReason: "preceding section unreadable, offset unknown"}
			}
			break
		}
		off = next
		rep.Sections[si] = SectionSalvage{Name: sec.name}
		if sec.n == 0 {
			continue
		}
		// The damage flags take their length from the directory's arena
		// arrays, which readSection sized to the validated chunk count.
		damaged := make([]bool, len(sec.crcs))
		switch si {
		case 0:
			ebSyms, err = decodeSection(ctx, sec, len(body), workers, damaged, decodeSymChunk)
		case 1:
			quantSyms, err = decodeSection(ctx, sec, len(body), workers, damaged, decodeSymChunk)
		default:
			raw, err = decodeSection(ctx, sec, len(body), workers, damaged, decodeRawChunk)
		}
		if err != nil {
			return hdr, nil, nil, nil, rep, err // only cancellation reaches here
		}
		rep.extents[si] = collectDamage(&rep.Sections[si], &sec, damaged)
	}
	return hdr, ebSyms, quantSyms, raw, rep, nil
}

// collectDamage folds the per-chunk damage flags into the section report —
// indexes, absolute payload offsets, and the recovered-byte tally — and
// returns the damaged unit extents for reconstruction tainting.
func collectDamage(dmg *SectionSalvage, sec *section, damaged []bool) [][2]int {
	dmg.Chunks = sec.cc
	var extents [][2]int
	for i, bad := range damaged {
		csize := len(sec.payload) - sec.offsets[i]
		if i+1 < sec.cc {
			csize = sec.offsets[i+1] - sec.offsets[i]
		}
		if !bad {
			dmg.BytesRecovered += csize
			continue
		}
		lo, hi := chunkBound(sec.n, sec.cc, i)
		dmg.DamagedChunks = append(dmg.DamagedChunks, i)
		dmg.DamagedOffsets = append(dmg.DamagedOffsets, int64(sec.base+sec.offsets[i]))
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
