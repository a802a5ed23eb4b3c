package core

import (
	"context"
	"errors"

	"tspsz/internal/cpsz"
	"tspsz/internal/field"
	"tspsz/internal/streamerr"
)

// SalvageReport is the container-level salvage outcome: the inner stream's
// report plus what happened to the container framing and the TspSZ-i
// correction patch.
type SalvageReport struct {
	// Stream is the inner cpSZ stream's salvage report (see
	// cpsz.SalvageReport). Non-nil whenever the inner stream's fixed header
	// was readable.
	Stream *cpsz.SalvageReport
	// ContainerSealBroken marks a whole-container trailer that failed to
	// verify. The container's patch section carries no checksum of its own,
	// so with the seal broken an applied patch may itself be damaged.
	ContainerSealBroken bool
	// PatchPresent reports a non-empty correction patch in the container
	// (TspSZ-i archives; TspSZ-1 patches are empty). PatchApplied reports
	// whether it was decoded and applied; when it could not be, PatchLost
	// says why and the returned field is the uncorrected cpSZ
	// reconstruction — error-bounded, but without Algorithm 3's separatrix
	// corrections.
	PatchPresent bool
	PatchApplied bool
	PatchLost    string
	// PatchVertices counts the vertices the patch restored verbatim. Those
	// vertices are exact even inside damaged regions, so applying the patch
	// clears their bits in Stream.Damaged.
	PatchVertices int
}

// Clean reports a salvage that recovered the complete archive: container
// seal intact, patch applied (or absent), and the inner stream clean.
func (r *SalvageReport) Clean() bool {
	if r.ContainerSealBroken || r.PatchLost != "" {
		return false
	}
	return r.Stream != nil && r.Stream.Clean()
}

// Salvage is the best-effort counterpart of Decompress: it accepts a TspSZ
// container or a bare cpSZ stream, decodes every chunk that verifies,
// zero-fills damaged extents, and degrades gracefully — a broken container
// trailer is tolerated, and a damaged correction patch falls back to the
// uncorrected cpSZ reconstruction instead of failing. Vertices not marked
// in the report's Damaged bitmap are bit-identical to a clean decode.
// Sequence (TSPQ) containers are not salvageable frame-wise — later frames
// are temporally predicted from earlier reconstructions, so damage does not
// stay local — and return ErrHeader. The report is non-nil whenever the
// outer framing was readable, even alongside a non-nil error.
func Salvage(data []byte, workers int) (*field.Field, *SalvageReport, error) {
	return SalvageCtx(nil, data, workers)
}

// SalvageCtx is Salvage with cancellation. A nil ctx never cancels.
func SalvageCtx(ctx context.Context, data []byte, workers int) (f *field.Field, rep *SalvageReport, err error) {
	defer streamerr.Guard("container", &err)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	if len(data) >= 4 && string(data[:4]) == seqMagic {
		return nil, nil, streamerr.Header("sequence",
			"sequence frames are temporally predicted; salvage individual frames by slicing the container")
	}
	if len(data) >= 4 && string(data[:4]) == "CPSZ" {
		// A bare cpSZ stream has no container framing and no patch.
		f, srep, err := cpsz.SalvageCtx(ctx, data, workers)
		if srep == nil {
			return f, nil, err
		}
		return f, &SalvageReport{Stream: srep}, err
	}
	// The container header must verify, but a broken seal is tolerated and
	// an inner stream running past the container is walked as far as it
	// goes: the inner salvage classifies the damage itself.
	c, seal, err := readContainer(data)
	if err != nil {
		return nil, nil, err
	}
	rep = &SalvageReport{ContainerSealBroken: seal != nil}
	f, srep, err := cpsz.SalvageCtx(ctx, c.inner, workers)
	rep.Stream = srep
	if err != nil {
		return nil, rep, err
	}
	// The patch restores separatrix-involved vertices verbatim (Algorithm
	// 3). If it cannot be decoded or applied, the salvage degrades to the
	// uncorrected cpSZ reconstruction — still error-bounded — and says so.
	patch, perr := unmarshalPatch(c.packed, c.ncomp)
	if perr == nil {
		perr = checkPatch(&patch, f)
	}
	rep.PatchPresent = perr != nil || len(patch.indices) > 0
	if perr != nil {
		rep.PatchLost = perr.Error()
		return f, rep, nil
	}
	if err := patch.apply(f); err != nil {
		rep.PatchLost = err.Error()
		return f, rep, nil
	}
	rep.PatchApplied = true
	rep.PatchVertices = len(patch.indices)
	// Patched vertices carry their original values verbatim, so they are
	// exact even inside zero-filled regions.
	if srep.Damaged != nil {
		n := srep.Damaged.Len()
		for _, idx := range patch.indices {
			// checkPatch already proved every index in range; the inline
			// guard keeps the invariant local to the write.
			if idx < 0 || idx >= n {
				continue
			}
			srep.Damaged.Clear(idx)
		}
		srep.DamagedVertices = srep.Damaged.Count()
	}
	return f, rep, nil
}

// checkPatch validates every patch index against the field before any value
// is written, so a corrupt patch never half-applies.
func checkPatch(p *patchSet, f *field.Field) error {
	n := f.NumVertices()
	for _, idx := range p.indices {
		if idx < 0 || idx >= n {
			return streamerr.Corrupt("patch", "patch index %d out of range [0,%d)", idx, n)
		}
	}
	if len(p.values) != len(f.Components()) {
		return streamerr.Corrupt("patch", "patch has %d components, field has %d", len(p.values), len(f.Components()))
	}
	return nil
}

// VerifyAll checks every integrity layer of a container (or TSPQ sequence)
// and its inner stream — header CRCs, trailers, section framing, the
// correction patch and every per-chunk checksum — and returns one typed
// failure per violation in stream order: the container seal, its framing,
// the patch, then the inner stream's failures with offsets shifted to
// absolute container offsets. That is the order strict decode checks
// them in, so the first entry carries the class Decompress returns for
// damage the checksums or the framing reveal. An empty result means the
// archive verifies completely.
func VerifyAll(data []byte) []*streamerr.Error {
	if len(data) >= 4 && string(data[:4]) == seqMagic {
		return verifyAllSequence(data)
	}
	return verifyAllContainer(data, "")
}

// verifyAllSequence walks a TSPQ sequence frame by frame; each frame's
// failures are prefixed with its index.
func verifyAllSequence(data []byte) []*streamerr.Error {
	n, off, err := parseSequenceHeader(data)
	if err != nil {
		return []*streamerr.Error{toStreamErr(err)}
	}
	var fails []*streamerr.Error
	for fi := 0; fi < n; fi++ {
		fr, next, err := sequenceFrame(data, off, fi)
		if err != nil {
			return append(fails, toStreamErr(err))
		}
		fails = append(fails, shiftOffsets(verifyAllContainer(fr, sectionPrefix(fi)), int64(off+8))...)
		off = next
	}
	return fails
}

func sectionPrefix(frame int) string {
	return "frame " + itoa(frame) + ": "
}

// itoa avoids pulling strconv into the hot import graph for one call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// verifyAllContainer collects every failure of one container, prefixing
// section names with prefix (used by the sequence walk).
func verifyAllContainer(data []byte, prefix string) []*streamerr.Error {
	var fails []*streamerr.Error
	add := func(err error) {
		if err == nil {
			return
		}
		se := toStreamErr(err)
		if prefix != "" {
			c := *se
			c.Section = prefix + c.Section
			se = &c
		}
		fails = append(fails, se)
	}
	if len(data) >= 4 && string(data[:4]) == "CPSZ" {
		for _, se := range cpsz.VerifyAll(data) {
			add(se)
		}
		return fails
	}
	add(func() (err error) {
		defer streamerr.Guard("container", &err)
		c, seal, err := readContainer(data)
		add(seal)
		if err != nil {
			return err
		}
		add(c.extent)
		_, err = unmarshalPatch(c.packed, c.ncomp)
		add(err)
		for _, se := range shiftOffsets(cpsz.VerifyAll(c.inner), int64(c.innerOff)) {
			add(se)
		}
		return nil
	}())
	return fails
}

// shiftOffsets rebases each failure's stream offset by base (offsets of -1,
// meaning unknown, are left alone).
func shiftOffsets(fails []*streamerr.Error, base int64) []*streamerr.Error {
	for i, se := range fails {
		if se.Offset >= 0 {
			c := *se
			c.Offset += base
			fails[i] = &c
		}
	}
	return fails
}

// toStreamErr coerces err into the concrete *streamerr.Error, wrapping
// anything untyped as corruption.
func toStreamErr(err error) *streamerr.Error {
	var se *streamerr.Error
	if errors.As(err, &se) {
		return se
	}
	return streamerr.Wrap(streamerr.ErrCorrupt, "container", err)
}
