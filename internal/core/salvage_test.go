package core

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"tspsz/internal/cpsz"
	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/streamerr"
)

// patchedFixture builds a TspSZ-i archive guaranteed to carry a non-empty
// correction patch (the force-exact fallback fixture), returning the
// archive, the original field, and the patched-vertex count.
func patchedFixture(t *testing.T) ([]byte, *field.Field, int) {
	t.Helper()
	f := field.New2D(72, 64)
	lx, ly := 35.5/3, 31.5/3
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		x, y := math.Pi*p[0]/lx, math.Pi*p[1]/ly
		f.U[idx] = float32(-math.Sin(x)*math.Cos(y) - 0.08*math.Cos(x)*math.Sin(y))
		f.V[idx] = float32(math.Cos(x)*math.Sin(y) - 0.08*math.Sin(x)*math.Cos(y))
	}
	base := Options{
		Variant: TspSZi, Mode: ebound.Absolute, ErrBound: 0.08,
		Params: testParams(), Tau: 0.05, Workers: 2,
	}
	o := base.withDefaults()
	o.MaxIterations = 0 // force-exact fallback: everything traced gets patched
	res, err := compressI(nil, f, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PatchedVertices == 0 {
		t.Fatal("fixture produced an empty patch")
	}
	return res.Bytes, f, res.Stats.PatchedVertices
}

// containerLayout locates the patch and inner-stream extents of a
// container.
func containerLayout(t *testing.T, data []byte) (patchOff, patchLen, innerOff, innerLen int) {
	t.Helper()
	if string(data[:4]) != containerMagic || data[4] != containerVersion {
		t.Fatalf("not a current-format container")
	}
	patchOff = containerHeaderBytes + containerCRCBytes + 8
	innerOff, innerLen = innerExtent(data)
	return patchOff, innerOff - 8 - patchOff, innerOff, innerLen
}

// resealArchive recomputes the inner stream trailer and the container
// trailer after a tamper, so only per-chunk checksums can catch it.
func resealArchive(t *testing.T, b []byte) []byte {
	t.Helper()
	_, _, innerOff, innerLen := containerLayout(t, b)
	return resealContainer(b, innerOff, innerLen)
}

// TestCoreSalvageClean checks salvage of an intact TspSZ-i archive is a
// bit-exact decode with the patch applied.
func TestCoreSalvageClean(t *testing.T) {
	data, _, patched := patchedFixture(t)
	clean, err := Decompress(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := Salvage(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || !rep.PatchApplied || !rep.PatchPresent {
		t.Fatalf("clean archive report: %+v", rep)
	}
	if rep.PatchVertices != patched {
		t.Fatalf("PatchVertices %d, want %d", rep.PatchVertices, patched)
	}
	for idx := 0; idx < clean.NumVertices(); idx++ {
		if got.U[idx] != clean.U[idx] || got.V[idx] != clean.V[idx] {
			t.Fatalf("clean salvage differs at %d", idx)
		}
	}
}

// TestCoreSalvageInnerDamagePatchSurvives corrupts a raw chunk of the inner
// stream (the last payload byte before the inner trailer) with both seals
// resealed: the patch must still apply, restoring its vertices verbatim —
// exact even when they sit inside zero-filled damage — and every vertex
// outside the reported damage must match a clean decode.
func TestCoreSalvageInnerDamagePatchSurvives(t *testing.T) {
	data, orig, patched := patchedFixture(t)
	clean, err := Decompress(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, innerOff, innerLen := containerLayout(t, data)
	mut := append([]byte(nil), data...)
	// Last inner byte before the inner trailer: inside the final raw chunk.
	mut[innerOff+innerLen-13] ^= 0xff
	resealArchive(t, mut)
	got, rep, err := Salvage(mut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ContainerSealBroken {
		t.Fatal("resealed container reported broken seal")
	}
	if !rep.PatchApplied || rep.PatchVertices != patched {
		t.Fatalf("patch did not survive: %+v", rep)
	}
	s := rep.Stream
	if s == nil || !s.Sections[2].Damaged() {
		t.Fatalf("raw damage not reported: %+v", s)
	}
	if s.Sections[0].Damaged() || s.Sections[1].Damaged() {
		t.Fatalf("symbol sections should be intact: %+v", s.Sections)
	}
	if s.DamagedVertices == 0 || s.DamagedVertices >= s.TotalVertices {
		t.Fatalf("raw damage should be partial: %d of %d", s.DamagedVertices, s.TotalVertices)
	}
	if s.DamagedVertices != s.Damaged.Count() {
		t.Fatalf("DamagedVertices %d != bitmap %d", s.DamagedVertices, s.Damaged.Count())
	}
	for idx := 0; idx < clean.NumVertices(); idx++ {
		if s.Damaged.Get(idx) {
			continue
		}
		if got.U[idx] != clean.U[idx] || got.V[idx] != clean.V[idx] {
			t.Fatalf("undamaged vertex %d not exact", idx)
		}
	}
	// Sanity: patched vertices carry the ORIGINAL values, not reconstructions.
	exactPatched := 0
	for idx := 0; idx < orig.NumVertices(); idx++ {
		if got.U[idx] == orig.U[idx] && got.V[idx] == orig.V[idx] {
			exactPatched++
		}
	}
	if exactPatched < patched {
		t.Fatalf("only %d vertices exact vs original, patch restored %d", exactPatched, patched)
	}
}

// TestCoreSalvagePatchLostFallsBack zeroes the packed patch: salvage must
// degrade to the uncorrected cpSZ reconstruction — still error-bounded —
// with PatchLost set, instead of failing.
func TestCoreSalvagePatchLostFallsBack(t *testing.T) {
	data, _, _ := patchedFixture(t)
	patchOff, patchLen, innerOff, innerLen := containerLayout(t, data)
	if patchLen == 0 {
		t.Fatal("fixture patch is empty")
	}
	mut := append([]byte(nil), data...)
	for i := patchOff; i < patchOff+patchLen; i++ {
		mut[i] = 0
	}
	resealArchive(t, mut)
	if _, err := Decompress(mut, 0); err == nil {
		t.Fatal("strict decode accepted destroyed patch")
	}
	got, rep, err := Salvage(mut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PatchLost == "" || rep.PatchApplied {
		t.Fatalf("patch loss not reported: %+v", rep)
	}
	if rep.Clean() {
		t.Fatal("Clean() true despite lost patch")
	}
	if !rep.Stream.Clean() {
		t.Fatalf("inner stream should be clean: %+v", rep.Stream)
	}
	// The fallback is exactly the uncorrected inner reconstruction.
	uncorrected, err := cpsz.Decompress(mut[innerOff:innerOff+innerLen], 0)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < got.NumVertices(); idx++ {
		if got.U[idx] != uncorrected.U[idx] || got.V[idx] != uncorrected.V[idx] {
			t.Fatalf("fallback differs from uncorrected reconstruction at %d", idx)
		}
	}
}

// TestCoreSalvageBrokenContainerTrailer flips the container trailer CRC:
// salvage proceeds on the inner checksums alone and flags the seal.
func TestCoreSalvageBrokenContainerTrailer(t *testing.T) {
	data, _, _ := patchedFixture(t)
	clean, err := Decompress(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)-1] ^= 0xff
	if _, err := Decompress(mut, 0); err == nil {
		t.Fatal("strict decode accepted broken container trailer")
	}
	got, rep, err := Salvage(mut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ContainerSealBroken || rep.Clean() {
		t.Fatalf("broken seal not reported: %+v", rep)
	}
	if !rep.PatchApplied || rep.Stream.DamagedVertices != 0 {
		t.Fatalf("intact content behind broken seal was lost: %+v", rep)
	}
	for idx := 0; idx < clean.NumVertices(); idx++ {
		if got.U[idx] != clean.U[idx] || got.V[idx] != clean.V[idx] {
			t.Fatalf("differs at %d", idx)
		}
	}
}

// TestCoreSalvageContainerHeaderDamageIsHard checks a container header CRC
// mismatch refuses salvage.
func TestCoreSalvageContainerHeaderDamageIsHard(t *testing.T) {
	data, _, _ := patchedFixture(t)
	mut := append([]byte(nil), data...)
	mut[6] ^= 0xff // component count byte, covered by the header CRC
	resealArchive(t, mut)
	if _, _, err := Salvage(mut, 0); !errors.Is(err, streamerr.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestCoreSalvageSequenceRefused checks TSPQ sequences refuse whole-archive
// salvage: frames are temporally chained, damage does not stay local.
func TestCoreSalvageSequenceRefused(t *testing.T) {
	f := gyre2D(24, 24)
	sr, err := CompressSequence([]*field.Field{f, f},
		Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 0.05, Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Salvage(sr.Bytes, 0); !errors.Is(err, streamerr.ErrHeader) {
		t.Fatalf("want ErrHeader for sequence, got %v", err)
	}
}

// TestCoreSalvageBareStream checks a bare cpSZ stream passes through: no
// container framing, no patch, inner report attached.
func TestCoreSalvageBareStream(t *testing.T) {
	res, err := cpsz.Compress(gyre2D(24, 24), cpsz.Options{Mode: ebound.Absolute, ErrBound: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := Salvage(res.Bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stream == nil || !rep.Clean() || rep.PatchPresent || rep.PatchApplied {
		t.Fatalf("bare stream report: %+v", rep)
	}
}

// TestCoreVerifyAllShiftsOffsets corrupts an inner raw chunk and checks the
// exhaustive verify reports it at its absolute container offset.
func TestCoreVerifyAllShiftsOffsets(t *testing.T) {
	data, _, _ := patchedFixture(t)
	if fails := VerifyAll(data); len(fails) != 0 {
		t.Fatalf("clean archive: %v", fails)
	}
	_, _, innerOff, innerLen := containerLayout(t, data)
	mut := append([]byte(nil), data...)
	tamper := innerOff + innerLen - 13
	mut[tamper] ^= 0xff
	resealArchive(t, mut)
	fails := VerifyAll(mut)
	if len(fails) != 1 {
		t.Fatalf("want 1 failure, got %v", fails)
	}
	fe := fails[0]
	if fe.Section != "raw" || !errors.Is(fe, streamerr.ErrCorrupt) {
		t.Fatalf("failure: %v", fe)
	}
	if fe.Offset < int64(innerOff) || fe.Offset > int64(tamper) {
		t.Fatalf("offset %d not rebased into [%d,%d]", fe.Offset, innerOff, tamper)
	}
}

// TestCoreVerifyAllSequenceFrames corrupts one frame of a two-frame
// sequence (without resealing) and checks every failure is prefixed with
// the frame index while the other frame stays clean.
func TestCoreVerifyAllSequenceFrames(t *testing.T) {
	f := gyre2D(24, 24)
	sr, err := CompressSequence([]*field.Field{f, f},
		Options{Variant: TspSZ1, Mode: ebound.Absolute, ErrBound: 0.05, Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	data := sr.Bytes
	if fails := VerifyAll(data); len(fails) != 0 {
		t.Fatalf("clean sequence: %v", fails)
	}
	// Frame 1's container: skip the 9-byte sequence header and frame 0.
	l0 := int(binary.LittleEndian.Uint64(data[9:]))
	f1 := 9 + 8 + l0 + 8
	mut := append([]byte(nil), data...)
	// Last inner byte before the two 12-byte trailers (inner + container).
	mut[len(mut)-25] ^= 0xff
	fails := VerifyAll(mut)
	if len(fails) == 0 {
		t.Fatal("corrupted sequence verified")
	}
	for _, fe := range fails {
		if !strings.HasPrefix(fe.Section, "frame 1: ") {
			t.Fatalf("failure not attributed to frame 1: %v", fe)
		}
		if fe.Offset >= 0 && fe.Offset < int64(f1) {
			t.Fatalf("offset %d not rebased past frame 1 start %d: %v", fe.Offset, f1, fe)
		}
	}
}

// TestCoreVerifyAllPatchLengthFlip flips the high bit of each byte of the
// patch-length field (container bytes 12–19) whose weight pushes the claim
// past the container, without resealing: the scan must report the broken
// container seal first, with the class strict decode returns, then the
// patch framing failure behind it.
func TestCoreVerifyAllPatchLengthFlip(t *testing.T) {
	data, _, _ := patchedFixture(t)
	lenField := containerHeaderBytes + containerCRCBytes
	for at := lenField + 1; at < lenField+8; at++ {
		mut := append([]byte(nil), data...)
		mut[at] ^= 0x80
		_, err := Decompress(mut, 0)
		fails := VerifyAll(mut)
		if len(fails) < 2 {
			t.Fatalf("patch-length byte %d: want seal and patch failures, got %v", at, fails)
		}
		if fails[0].Section != "container trailer" || !errors.Is(fails[0], streamerr.ErrCorrupt) {
			t.Fatalf("patch-length byte %d: first failure %v, want the container seal", at, fails[0])
		}
		if !errors.Is(err, streamerr.ErrCorrupt) {
			t.Fatalf("patch-length byte %d: strict decode %v, want ErrCorrupt", at, err)
		}
		if fails[1].Section != "patch" {
			t.Fatalf("patch-length byte %d: second failure %v, want the patch", at, fails[1])
		}
	}
}

// TestCoreVerifyAllTruncatedMatchesDecode cuts a container in half: the
// broken seal is a truncation, and the scan must say so first — as strict
// decode does — rather than a generic corruption.
func TestCoreVerifyAllTruncatedMatchesDecode(t *testing.T) {
	data, _, _ := patchedFixture(t)
	for _, cut := range []int{len(data) / 2, len(data) - 1, len(data) - containerTrailerBytes} {
		half := data[:cut]
		_, err := Decompress(half, 0)
		fails := VerifyAll(half)
		if len(fails) == 0 {
			t.Fatalf("cut at %d verified", cut)
		}
		for _, kind := range []error{streamerr.ErrTruncated, streamerr.ErrCorrupt} {
			if errors.Is(err, kind) != errors.Is(fails[0], kind) {
				t.Fatalf("cut at %d: decode %v, scan first reports %v", cut, err, fails[0])
			}
		}
	}
}

// TestCoreVersionRefused checks every container version byte but the
// current one is refused with ErrVersion by decode, the scan and salvage.
func TestCoreVersionRefused(t *testing.T) {
	data, _, _ := patchedFixture(t)
	for _, v := range []byte{1, 2, 4} {
		mut := append([]byte(nil), data...)
		mut[4] = v
		if _, err := Decompress(mut, 0); !errors.Is(err, streamerr.ErrVersion) {
			t.Errorf("container version %d: Decompress got %v, want ErrVersion", v, err)
		}
		if fails := VerifyAll(mut); len(fails) != 1 || !errors.Is(fails[0], streamerr.ErrVersion) {
			t.Errorf("container version %d: VerifyAll got %v, want one ErrVersion", v, fails)
		}
		if _, _, err := Salvage(mut, 0); !errors.Is(err, streamerr.ErrVersion) {
			t.Errorf("container version %d: Salvage got %v, want ErrVersion", v, err)
		}
	}
}
