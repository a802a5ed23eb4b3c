package cpsz

import (
	"context"
	"errors"
	"testing"

	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/streamerr"
)

// salvageFixture compresses f and returns the archive plus the clean decode
// every salvage result is measured against.
func salvageFixture(t *testing.T, f *field.Field, opts Options) ([]byte, *field.Field) {
	t.Helper()
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Decompress(res.Bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Bytes, clean
}

// corruptPayload flips one byte of chunk r's payload on a copy of data,
// resealing the whole-stream trailer so only the per-chunk checksum can
// catch the damage.
func corruptPayload(data []byte, r chunkRef, reseal bool) []byte {
	b := append([]byte(nil), data...)
	b[r.payOff+r.csize/2] ^= 0xff
	if reseal {
		resealTrailer(b)
	}
	return b
}

// sectionChunkIndex maps a flat walkV4 index to the chunk's index within
// its own section.
func sectionChunkIndex(refs []chunkRef, i int) int {
	idx := 0
	for j := 0; j < i; j++ {
		if refs[j].section == refs[i].section {
			idx++
		}
	}
	return idx
}

// checkUndamagedExact asserts every vertex not marked damaged is
// bit-identical to the clean decode, and every bitmap count agrees.
func checkUndamagedExact(t *testing.T, got, clean *field.Field, rep *SalvageReport) {
	t.Helper()
	if rep.Damaged == nil {
		t.Fatal("report has no damage bitmap")
	}
	if rep.DamagedVertices != rep.Damaged.Count() {
		t.Fatalf("DamagedVertices %d != bitmap count %d", rep.DamagedVertices, rep.Damaged.Count())
	}
	if rep.TotalVertices != clean.NumVertices() {
		t.Fatalf("TotalVertices %d != %d", rep.TotalVertices, clean.NumVertices())
	}
	gc, cc := got.Components(), clean.Components()
	for idx := 0; idx < clean.NumVertices(); idx++ {
		if rep.Damaged.Get(idx) {
			continue
		}
		for c := range cc {
			if gc[c][idx] != cc[c][idx] {
				t.Fatalf("vertex %d component %d not exact: %v != %v (reported undamaged)",
					idx, c, gc[c][idx], cc[c][idx])
			}
		}
	}
}

// TestSalvageCleanStream checks salvage of an intact archive is a clean,
// bit-exact decode with an all-green report.
func TestSalvageCleanStream(t *testing.T) {
	for _, mode := range []ebound.Mode{ebound.Absolute, ebound.Relative} {
		data, clean := salvageFixture(t, gyre2D(48, 40), Options{Mode: mode, ErrBound: 1e-3})
		got, rep, err := Salvage(data, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("mode %v: clean archive reported damage: %+v", mode, rep)
		}
		if rep.DamagedVertices != 0 || rep.Damaged.Count() != 0 {
			t.Fatalf("mode %v: damaged vertices on clean archive", mode)
		}
		for si, sec := range rep.Sections {
			if sec.Name != sectionNames[si] || sec.Damaged() {
				t.Fatalf("mode %v: section %d bad report %+v", mode, si, sec)
			}
		}
		checkUndamagedExact(t, got, clean, rep)
		if rep.Damaged.Count() != 0 {
			t.Fatal("clean salvage marked vertices damaged")
		}
		for idx := 0; idx < clean.NumVertices(); idx++ {
			if got.U[idx] != clean.U[idx] || got.V[idx] != clean.V[idx] {
				t.Fatalf("mode %v: clean salvage differs at %d", mode, idx)
			}
		}
	}
}

// TestSalvageSingleChunkSweep is the acceptance sweep: corrupting any single
// chunk of a v4 archive must yield a salvage decode that recovers every
// other chunk — every vertex outside the reported damage is bit-exact — and
// a report naming exactly the damaged chunk. The field is large enough for
// multiple chunks per symbol section.
func TestSalvageSingleChunkSweep(t *testing.T) {
	f := gyre2D(260, 260) // 67600 vertices: >1 chunk in both symbol sections
	data, clean := salvageFixture(t, f, Options{Mode: ebound.Absolute, ErrBound: 1e-3, Workers: 4})
	refs := walkV4(t, data)
	if len(refs) < 4 {
		t.Fatalf("fixture too small: only %d chunks", len(refs))
	}
	sawRecovery := false
	sections := map[string]bool{}
	for i, r := range refs {
		if r.csize == 0 {
			continue
		}
		sections[r.section] = true
		mut := corruptPayload(data, r, true)
		got, rep, err := Salvage(mut, 4)
		if err != nil {
			t.Fatalf("chunk %d (%s): salvage failed: %v", i, r.section, err)
		}
		if rep.SealBroken {
			t.Fatalf("chunk %d (%s): resealed archive reported SealBroken", i, r.section)
		}
		want := sectionChunkIndex(refs, i)
		for si, sec := range rep.Sections {
			if sec.Lost {
				t.Fatalf("chunk %d: section %s lost: %s", i, sec.Name, sec.LostReason)
			}
			if sec.Name == r.section {
				if len(sec.DamagedChunks) != 1 || sec.DamagedChunks[0] != want {
					t.Fatalf("chunk %d (%s): damaged chunks %v, want [%d]", i, r.section, sec.DamagedChunks, want)
				}
				if len(sec.DamagedOffsets) != 1 || sec.DamagedOffsets[0] != int64(r.payOff) {
					t.Fatalf("chunk %d (%s): damaged offsets %v, want [%d]", i, r.section, sec.DamagedOffsets, r.payOff)
				}
			} else if sec.Damaged() {
				t.Fatalf("chunk %d (%s): undamaged section %d reported %+v", i, r.section, si, sec)
			}
		}
		if rep.DamagedVertices == 0 {
			t.Fatalf("chunk %d (%s): damage reported but no vertex marked", i, r.section)
		}
		checkUndamagedExact(t, got, clean, rep)
		if rep.DamagedVertices < rep.TotalVertices {
			sawRecovery = true
		}
	}
	for _, sec := range []string{"eb-symbols", "quant-symbols", "raw"} {
		if !sections[sec] {
			t.Fatalf("sweep never hit section %s", sec)
		}
	}
	if !sawRecovery {
		t.Fatal("no corruption case recovered any vertices")
	}
}

// TestSalvageRawDamagePrecise checks that raw-section damage — which never
// disturbs stream alignment — loses only the regions whose raw windows
// overlap the damaged extent, so later symbol chunks still decode exactly.
func TestSalvageRawDamagePrecise(t *testing.T) {
	data, clean := salvageFixture(t, gyre2D(260, 260), Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	refs := walkV4(t, data)
	var raw *chunkRef
	for i := range refs {
		if refs[i].section == "raw" && refs[i].csize > 0 {
			raw = &refs[i]
			break
		}
	}
	if raw == nil {
		t.Skip("fixture has no raw chunk")
	}
	got, rep, err := Salvage(corruptPayload(data, *raw, true), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sections[0].Damaged() || rep.Sections[1].Damaged() {
		t.Fatalf("symbol sections reported damaged: %+v", rep.Sections)
	}
	if !rep.Sections[2].Damaged() {
		t.Fatal("raw section not reported damaged")
	}
	if rep.DamagedVertices == 0 || rep.DamagedVertices >= rep.TotalVertices {
		t.Fatalf("raw damage should be partial: %d of %d vertices lost",
			rep.DamagedVertices, rep.TotalVertices)
	}
	checkUndamagedExact(t, got, clean, rep)
}

// TestSalvageEbDamageTaintsSuffix checks the taint model: a damaged eb
// chunk invalidates the quant/raw cursors from its first vertex on, but
// everything before it stays exact.
func TestSalvageEbDamageTaintsSuffix(t *testing.T) {
	data, clean := salvageFixture(t, gyre2D(260, 260), Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	refs := walkV4(t, data)
	var eb []chunkRef
	for _, r := range refs {
		if r.section == "eb-symbols" {
			eb = append(eb, r)
		}
	}
	if len(eb) < 2 {
		t.Fatalf("need >= 2 eb chunks, have %d", len(eb))
	}
	// Corrupt the LAST eb chunk: every vertex before its extent must
	// survive, so recovery must be substantial.
	got, rep, err := Salvage(corruptPayload(data, eb[len(eb)-1], true), 0)
	if err != nil {
		t.Fatal(err)
	}
	checkUndamagedExact(t, got, clean, rep)
	recovered := rep.TotalVertices - rep.DamagedVertices
	if recovered == 0 {
		t.Fatal("tail eb-chunk damage recovered nothing")
	}
	t.Logf("tail eb chunk damaged: recovered %d of %d vertices", recovered, rep.TotalVertices)
}

// TestSalvageBrokenSealTolerated checks a corrupt trailer (no reseal) is
// tolerated: the decode proceeds on chunk checksums alone and the report
// sets SealBroken.
func TestSalvageBrokenSealTolerated(t *testing.T) {
	data, clean := salvageFixture(t, gyre2D(48, 40), Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	mut := append([]byte(nil), data...)
	mut[len(mut)-1] ^= 0xff // trailer CRC byte
	if _, err := Decompress(mut, 0); err == nil {
		t.Fatal("strict decode accepted broken trailer")
	}
	got, rep, err := Salvage(mut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SealBroken {
		t.Fatal("SealBroken not set")
	}
	if rep.Clean() {
		t.Fatal("broken seal but Clean() true")
	}
	if rep.DamagedVertices != 0 {
		t.Fatalf("intact chunks behind a broken seal lost %d vertices", rep.DamagedVertices)
	}
	checkUndamagedExact(t, got, clean, rep)
}

// TestSalvageUnsealedChunkDamage checks a corrupt chunk without a reseal
// reports both the broken seal and the damaged chunk.
func TestSalvageUnsealedChunkDamage(t *testing.T) {
	data, clean := salvageFixture(t, gyre2D(260, 260), Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	refs := walkV4(t, data)
	got, rep, err := Salvage(corruptPayload(data, refs[len(refs)-1], false), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SealBroken {
		t.Fatal("SealBroken not set")
	}
	if !rep.Sections[2].Damaged() && !rep.Sections[1].Damaged() && !rep.Sections[0].Damaged() {
		t.Fatal("damaged chunk not reported")
	}
	checkUndamagedExact(t, got, clean, rep)
}

// TestSalvageRawSectionLost checks graceful degradation when the raw
// section's framing is unreadable: the symbol sections still decode, only
// regions needing raw bytes are lost, and the report says why.
func TestSalvageRawSectionLost(t *testing.T) {
	data, clean := salvageFixture(t, gyre2D(260, 260), Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	refs := walkV4(t, data)
	var firstRaw *chunkRef
	for i := range refs {
		if refs[i].section == "raw" {
			firstRaw = &refs[i]
			break
		}
	}
	if firstRaw == nil {
		t.Skip("fixture has no raw chunk")
	}
	// Truncate inside the first raw payload: the raw directory promises
	// more bytes than remain, so the section frame is unreadable.
	mut := append([]byte(nil), data[:firstRaw.payOff+1]...)
	got, rep, err := Salvage(mut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SealBroken {
		t.Fatal("truncation must break the seal")
	}
	if rep.Sections[0].Damaged() || rep.Sections[1].Damaged() {
		t.Fatalf("symbol sections should survive: %+v", rep.Sections[:2])
	}
	if !rep.Sections[2].Lost || rep.Sections[2].LostReason == "" {
		t.Fatalf("raw section not marked lost: %+v", rep.Sections[2])
	}
	if rep.DamagedVertices == 0 {
		t.Fatal("lost raw section lost no vertices")
	}
	checkUndamagedExact(t, got, clean, rep)
	t.Logf("raw section lost: recovered %d of %d vertices", rep.TotalVertices-rep.DamagedVertices, rep.TotalVertices)
}

// TestSalvageEbSectionLostIsHard checks the one unrecoverable section: with
// the eb section unreadable nothing bounds the field allocation and no
// vertex is recoverable, so salvage reports hard corruption — with the
// report still attached for diagnostics.
func TestSalvageEbSectionLostIsHard(t *testing.T) {
	data, _ := salvageFixture(t, gyre2D(48, 40), Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	refs := walkV4(t, data)
	mut := append([]byte(nil), data[:refs[0].payOff+1]...)
	_, rep, err := Salvage(mut, 0)
	if !errors.Is(err, streamerr.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if rep == nil {
		t.Fatal("report missing alongside hard error")
	}
	if !rep.Sections[0].Lost || !rep.Sections[1].Lost || !rep.Sections[2].Lost {
		t.Fatalf("lost-section cascade missing: %+v", rep.Sections)
	}
}

// TestSalvageHeaderDamageIsHard checks a damaged fixed header (CRC
// mismatch) cannot be salvaged: dims and mode are untrustable.
func TestSalvageHeaderDamageIsHard(t *testing.T) {
	data, _ := salvageFixture(t, gyre2D(48, 40), Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	mut := append([]byte(nil), data...)
	mut[9] ^= 0xff // nx byte
	resealTrailer(mut)
	_, _, err := Salvage(mut, 0)
	if !errors.Is(err, streamerr.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for header damage, got %v", err)
	}
}

// TestSalvagePreV3Refused checks streams of any other format generation
// refuse salvage with ErrVersion: this build reads only the current
// layout, and the checksums of older ones sit elsewhere or nowhere.
func TestSalvagePreV3Refused(t *testing.T) {
	data, _ := salvageFixture(t, gyre2D(48, 40), Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	for _, v := range []byte{1, 2, 3, 5} {
		mut := append([]byte(nil), data...)
		mut[4] = v
		if _, _, err := Salvage(mut, 0); !errors.Is(err, streamerr.ErrVersion) {
			t.Fatalf("version %d: want ErrVersion, got %v", v, err)
		}
	}
}

// TestSalvageNotAStream checks non-cpSZ bytes fail with ErrHeader and
// truncated headers with ErrTruncated.
func TestSalvageNotAStream(t *testing.T) {
	if _, _, err := Salvage([]byte("JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK"), 0); !errors.Is(err, streamerr.ErrHeader) {
		t.Fatalf("want ErrHeader, got %v", err)
	}
	if _, _, err := Salvage([]byte("CPS"), 0); !errors.Is(err, streamerr.ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

// TestSalvageRelativeMode runs a corruption case through the relative-mode
// symbol accounting.
func TestSalvageRelativeMode(t *testing.T) {
	data, clean := salvageFixture(t, gyre2D(200, 170), Options{Mode: ebound.Relative, ErrBound: 1e-3})
	refs := walkV4(t, data)
	for i, r := range refs {
		if r.csize == 0 {
			continue
		}
		got, rep, err := Salvage(corruptPayload(data, r, true), 0)
		if err != nil {
			t.Fatalf("chunk %d (%s): %v", i, r.section, err)
		}
		checkUndamagedExact(t, got, clean, rep)
	}
}

// TestSalvageInterpDamageLosesFrame checks the interpolation predictor's
// documented degradation: its serial global error feedback cannot contain
// damage, so any chunk loss zeroes the whole frame — reported, not failed.
func TestSalvageInterpDamageLosesFrame(t *testing.T) {
	data, clean := salvageFixture(t, gyre2D(48, 40),
		Options{Mode: ebound.Absolute, ErrBound: 1e-3, Predictor: PredictorInterpolation})
	// Clean salvage of an interp stream is still exact.
	got, rep, err := Salvage(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean interp archive reported damage: %+v", rep)
	}
	checkUndamagedExact(t, got, clean, rep)
	refs := walkV4(t, data)
	var target *chunkRef
	for i := range refs {
		if refs[i].csize > 0 {
			target = &refs[i]
			break
		}
	}
	got, rep, err = Salvage(corruptPayload(data, *target, true), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DamagedVertices != rep.TotalVertices {
		t.Fatalf("interp damage must lose the frame: %d of %d", rep.DamagedVertices, rep.TotalVertices)
	}
	for idx := 0; idx < got.NumVertices(); idx++ {
		if got.U[idx] != 0 || got.V[idx] != 0 {
			t.Fatalf("damaged interp frame not zeroed at %d", idx)
		}
	}
}

// TestSalvageTemporalRefused checks temporally predicted streams refuse
// salvage: reconstruction needs the reference frame.
func TestSalvageTemporalRefused(t *testing.T) {
	f := gyre2D(48, 40)
	ref, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: 1e-3, Reference: ref.Decompressed})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := Salvage(res.Bytes, 0)
	if !errors.Is(err, streamerr.ErrHeader) {
		t.Fatalf("want ErrHeader for temporal stream, got %v", err)
	}
	if rep == nil {
		t.Fatal("report missing for temporal refusal")
	}
}

// TestSalvageCancellation checks both the pre-cancelled fast path and that
// cancellation inside the chunk fan-out surfaces as a context error rather
// than chunk damage.
func TestSalvageCancellation(t *testing.T) {
	data, _ := salvageFixture(t, gyre2D(260, 260), Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := SalvageCtx(ctx, data, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) || errors.Is(err, streamerr.ErrCorrupt) {
		t.Fatalf("cancellation misclassified: %v", err)
	}
}

// TestVerifyAllReportsEveryFailure corrupts one chunk in each section of a
// resealed archive and checks the exhaustive scan reports all three in
// stream order with chunk indexes and payload offsets — where strict decode
// stops at the first.
func TestVerifyAllReportsEveryFailure(t *testing.T) {
	data, _ := salvageFixture(t, gyre2D(260, 260), Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	if fails := VerifyAll(data); len(fails) != 0 {
		t.Fatalf("clean archive: %v", fails)
	}
	refs := walkV4(t, data)
	mut := append([]byte(nil), data...)
	var want []chunkRef
	seen := map[string]bool{}
	for _, r := range refs {
		if r.csize == 0 || seen[r.section] {
			continue
		}
		seen[r.section] = true
		mut[r.payOff+r.csize/2] ^= 0xff
		want = append(want, r)
	}
	resealTrailer(mut)
	if len(want) < 2 {
		t.Fatalf("fixture produced only %d corruptible sections", len(want))
	}
	fails := VerifyAll(mut)
	if len(fails) != len(want) {
		t.Fatalf("got %d failures, want %d: %v", len(fails), len(want), fails)
	}
	for i, fe := range fails {
		if fe.Section != want[i].section {
			t.Fatalf("failure %d section %q, want %q", i, fe.Section, want[i].section)
		}
		if fe.Chunk != sectionChunkIndex(refs, flatIndex(refs, want[i])) {
			t.Fatalf("failure %d chunk %d", i, fe.Chunk)
		}
		if fe.Offset != int64(want[i].payOff) {
			t.Fatalf("failure %d offset %d, want %d", i, fe.Offset, want[i].payOff)
		}
		if !errors.Is(fe, streamerr.ErrCorrupt) {
			t.Fatalf("failure %d kind %v", i, fe.Kind)
		}
	}
	// Without a reseal the broken trailer is reported too, first.
	mut2 := append([]byte(nil), data...)
	r := want[0]
	mut2[r.payOff+r.csize/2] ^= 0xff
	fails = VerifyAll(mut2)
	if len(fails) != 2 {
		t.Fatalf("unsealed: got %d failures, want trailer + chunk: %v", len(fails), fails)
	}
	if fails[0].Section == r.section {
		t.Fatalf("trailer failure should precede chunk failure: %v", fails)
	}
}

// flatIndex finds r's index in refs.
func flatIndex(refs []chunkRef, r chunkRef) int {
	for i := range refs {
		if refs[i].payOff == r.payOff {
			return i
		}
	}
	return -1
}

// TestVerifyAllStructural checks a structural failure ends the scan as its
// final entry.
func TestVerifyAllStructural(t *testing.T) {
	data, _ := salvageFixture(t, gyre2D(48, 40), Options{Mode: ebound.Absolute, ErrBound: 1e-3})
	refs := walkV4(t, data)
	mut := append([]byte(nil), data[:refs[0].payOff+1]...)
	fails := VerifyAll(mut)
	if len(fails) == 0 {
		t.Fatal("truncated archive verified")
	}
	last := fails[len(fails)-1]
	if !errors.Is(last, streamerr.ErrTruncated) && !errors.Is(last, streamerr.ErrCorrupt) {
		t.Fatalf("structural failure kind: %v", last)
	}
}

// TestSalvageAgreesWithDecompressOnClean cross-checks Salvage against
// Decompress over assorted shapes, modes, and predictors.
func TestSalvageAgreesWithDecompressOnClean(t *testing.T) {
	cases := []struct {
		f    *field.Field
		opts Options
	}{
		{gyre2D(48, 40), Options{Mode: ebound.Absolute, ErrBound: 1e-3}},
		{gyre2D(48, 40), Options{Mode: ebound.Relative, ErrBound: 1e-2}},
		{turb3D(14), Options{Mode: ebound.Absolute, ErrBound: 1e-2}},
		{flat2D(32, 32), Options{Mode: ebound.Absolute, ErrBound: 1e-2}},
		{gyre2D(33, 29), Options{Mode: ebound.Absolute, ErrBound: 1e-3, Predictor: PredictorInterpolation}},
	}
	for ci, tc := range cases {
		data, clean := salvageFixture(t, tc.f, tc.opts)
		got, rep, err := Salvage(data, 0)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if !rep.Clean() {
			t.Fatalf("case %d: damage on clean archive: %+v", ci, rep)
		}
		gc, cc := got.Components(), clean.Components()
		for c := range cc {
			for idx := range cc[c] {
				if gc[c][idx] != cc[c][idx] {
					t.Fatalf("case %d: differs at vertex %d comp %d", ci, idx, c)
				}
			}
		}
	}
}
