package cpsz

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"tspsz/internal/ebound"
	"tspsz/internal/faultinject"
	"tspsz/internal/streamerr"
)

// TestFaultSweep is the byte-level crash-proofing proof for the cpSZ layer:
// it flips bits in EVERY byte of an archive, truncates at every offset, and
// applies seeded random zero/duplicate-range mutations; every outcome must
// be either a streamerr-typed error or a structurally sound decode — never
// a panic, and (CRC32C detects all single-bit errors) never a silent
// success. The sweep therefore also covers every chunk mode byte and every
// packed-chunk base/width byte the archive carries. Decode runs with
// workers=4 so the mutations also exercise the parallel inflate path, and
// the test asserts the sweep leaks no goroutines.
func TestFaultSweep(t *testing.T) {
	f := gyre2D(16, 12)
	res, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: 0.05, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	sweepArchive(t, "v4", res.Bytes)
	checkNoGoroutineLeak(t, before)
}

// sweepArchive runs the three mutation families against one archive.
func sweepArchive(t *testing.T, name string, stream []byte) {
	t.Helper()
	bits := []uint{0, 1, 2, 3, 4, 5, 6, 7}
	if testing.Short() {
		bits = bits[:1]
	}
	for i := range stream {
		for _, b := range bits {
			bit := (b + uint(i)) % 8 // vary the bit with position in short mode
			mut := faultinject.FlipBit(stream, i, bit)
			err := decodeMutant(t, name, "flip", i, mut)
			if err == nil {
				t.Fatalf("%s: single-bit flip at byte %d bit %d decoded silently", name, i, bit)
			}
		}
	}
	for cut := 0; cut < len(stream); cut++ {
		if err := decodeMutant(t, name, "truncate", cut, faultinject.Truncate(stream, cut)); err == nil {
			t.Fatalf("%s: truncation to %d of %d bytes decoded silently", name, cut, len(stream))
		}
	}
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	rng := faultinject.NewRand(0x7359)
	for r := 0; r < rounds; r++ {
		decodeMutant(t, name, "random", r, rng.Mutate(stream))
	}
}

// decodeMutant decodes and checksum-scans one mutant, asserting the shared
// contract: typed failure or structurally sound success, and a scan whose
// first failure has the class strict decode reports.
func decodeMutant(t *testing.T, name, kind string, pos int, mut []byte) error {
	t.Helper()
	fld, err := Decompress(mut, 4)
	if err != nil {
		if !streamErrTyped(err) {
			t.Fatalf("%s: %s at %d: untyped decode error: %v", name, kind, pos, err)
		}
	} else if fld == nil || fld.NumVertices() == 0 {
		t.Fatalf("%s: %s at %d: nil/empty field with nil error", name, kind, pos)
	}
	fails := VerifyAll(mut)
	for _, fe := range fails {
		if !streamErrTyped(fe) {
			t.Fatalf("%s: %s at %d: untyped verify error: %v", name, kind, pos, fe)
		}
	}
	if err != nil && len(fails) > 0 && !sameClass(err, fails[0]) {
		t.Fatalf("%s: %s at %d: decode failed with %v but the scan first reports %v", name, kind, pos, err, fails[0])
	}
	return err
}

// checkNoGoroutineLeak waits briefly for worker goroutines to drain and
// fails if the count stays above the pre-sweep level.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before sweep, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sameClass reports whether a and b carry the same streamerr failure class.
func sameClass(a, b error) bool {
	for _, kind := range []error{streamerr.ErrTruncated, streamerr.ErrCorrupt, streamerr.ErrVersion, streamerr.ErrHeader} {
		if errors.Is(a, kind) != errors.Is(b, kind) {
			return false
		}
	}
	return true
}
