package tspsz_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"tspsz"
	"tspsz/internal/faultinject"
)

// streamErrTyped reports whether err carries one of the four exported
// failure classes.
func streamErrTyped(err error) bool {
	return errors.Is(err, tspsz.ErrTruncated) || errors.Is(err, tspsz.ErrCorrupt) ||
		errors.Is(err, tspsz.ErrVersion) || errors.Is(err, tspsz.ErrHeader)
}

// TestFaultSweepPublicAPI mutates every byte of a TspSZ container and of a
// sequence archive, truncates at every offset, and applies seeded random
// zero/duplicate-range corruption — through the public Decompress /
// DecompressSequence / Verify entry points with parallel workers. Both
// archives are checksummed, so CRC32C must detect every single-bit flip; every
// failure must match a tspsz.Err* sentinel, and the sweep must leak no
// goroutines.
func TestFaultSweepPublicAPI(t *testing.T) {
	f := demoField()
	opts := tspsz.Options{Variant: tspsz.TspSZ1, Mode: tspsz.ModeAbsolute, ErrBound: 0.05}
	res, err := tspsz.Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := tspsz.CompressSequence([]*tspsz.Field{f, f}, opts)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	sweep(t, "container", res.Bytes, func(mut []byte) (bool, error) {
		fld, err := tspsz.Decompress(mut, 4)
		return err == nil && fld != nil && fld.NumVertices() == f.NumVertices(), err
	})
	sweep(t, "sequence", seq.Bytes, func(mut []byte) (bool, error) {
		frames, err := tspsz.DecompressSequence(mut, 4)
		return err == nil && len(frames) == 2, err
	})
	waitNoGoroutineLeak(t, before)
}

// sweep applies the mutation families to one archive; decode reports
// whether a nil-error result is structurally sound.
func sweep(t *testing.T, name string, stream []byte, decode func([]byte) (bool, error)) {
	t.Helper()
	check := func(kind string, pos int, mut []byte, mustFail bool) {
		ok, err := decode(mut)
		if err != nil {
			if !streamErrTyped(err) {
				t.Fatalf("%s: %s at %d: untyped decode error: %v", name, kind, pos, err)
			}
		} else if !ok {
			t.Fatalf("%s: %s at %d: malformed result with nil error", name, kind, pos)
		} else if mustFail {
			t.Fatalf("%s: %s at %d: corruption decoded silently", name, kind, pos)
		}
		if verr := tspsz.Verify(mut); verr != nil && !streamErrTyped(verr) {
			t.Fatalf("%s: %s at %d: untyped verify error: %v", name, kind, pos, verr)
		} else if verr == nil && mustFail {
			t.Fatalf("%s: %s at %d: corruption verified clean", name, kind, pos)
		}
	}
	stride := 1
	if testing.Short() {
		stride = 7 // still lands on every section boundary class across runs
	}
	for i := 0; i < len(stream); i += stride {
		// The sequence header (magic/version/count) predates the per-frame
		// containers, whose trailer CRC cannot see it; inside a frame every
		// single-bit flip must be caught.
		mustFail := name != "sequence" || i >= 9
		check("flip", i, faultinject.FlipBit(stream, i, uint(i)%8), mustFail)
	}
	for cut := 0; cut < len(stream); cut += stride {
		check("truncate", cut, faultinject.Truncate(stream, cut), true)
	}
	rounds := 500
	if testing.Short() {
		rounds = 100
	}
	rng := faultinject.NewRand(0xF417)
	for r := 0; r < rounds; r++ {
		check("random", r, rng.Mutate(stream), false)
	}
}

// TestReadFieldFaultyReader drives tspsz.ReadField with a reader that fails
// mid-stream and with 1-byte-at-a-time delivery: the I/O error must pass
// through, truncation must be typed, and short reads must not corrupt the
// result.
func TestReadFieldFaultyReader(t *testing.T) {
	f := demoField()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	boom := errors.New("device failed")
	for _, n := range []int{0, 3, 4, 19, 20, len(data) / 2} {
		if _, err := tspsz.ReadField(faultinject.ErrReader(data, n, boom)); !errors.Is(err, boom) {
			t.Fatalf("reader failing after %d bytes: got %v, want the device error", n, err)
		}
	}
	for _, n := range []int{4, 20, len(data) - 1} {
		_, err := tspsz.ReadField(faultinject.ErrReader(data, n, io.EOF))
		if !errors.Is(err, tspsz.ErrTruncated) {
			t.Fatalf("stream ending at %d bytes: got %v, want ErrTruncated", n, err)
		}
	}
	got, err := tspsz.ReadField(faultinject.ShortReader(bytes.NewReader(data), 1))
	if err != nil {
		t.Fatalf("1-byte reads: %v", err)
	}
	if got.NumVertices() != f.NumVertices() {
		t.Fatalf("1-byte reads reconstructed %d vertices, want %d", got.NumVertices(), f.NumVertices())
	}
}

func waitNoGoroutineLeak(t *testing.T, before int) {
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
