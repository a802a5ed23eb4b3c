package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"tspsz/internal/ebound"
	"tspsz/internal/field"
	"tspsz/internal/streamerr"
)

// streamErrTyped reports whether err carries one of the four streamerr
// failure classes.
func streamErrTyped(err error) bool {
	return errors.Is(err, streamerr.ErrTruncated) || errors.Is(err, streamerr.ErrCorrupt) ||
		errors.Is(err, streamerr.ErrVersion) || errors.Is(err, streamerr.ErrHeader)
}

// checkVerifyAll asserts the exhaustive scan's contract on any input: every
// entry is streamerr-typed.
func checkVerifyAll(t *testing.T, data []byte) []*streamerr.Error {
	t.Helper()
	fails := VerifyAll(data)
	for _, fe := range fails {
		if !streamErrTyped(fe) {
			t.Fatalf("untyped verify error: %v", fe)
		}
	}
	return fails
}

// FuzzDecompress drives the container decoder with arbitrary bytes: it must
// return a streamerr-typed error or a well-formed field, never panic. Seeds
// cover a valid container, its truncations, and checksum-tamper variants
// (flipped header CRC, flipped byte mid-payload, trailer lying about the
// payload length) so the corpus starts on both sides of every integrity
// check.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("TSPZ"))
	fld := gyre2D(12, 10)
	res, err := Compress(fld, Options{Variant: TspSZi, Mode: ebound.Absolute, ErrBound: 0.05, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	stream := res.Bytes
	f.Add(stream)
	for _, cut := range []int{1, 4, 8, 11, 12, len(stream) / 2, len(stream) - 12, len(stream) - 1} {
		if cut >= 0 && cut < len(stream) {
			f.Add(stream[:cut])
		}
	}
	headerCRCFlip := append([]byte{}, stream...)
	headerCRCFlip[containerHeaderBytes] ^= 0x01
	f.Add(headerCRCFlip)
	payloadFlip := append([]byte{}, stream...)
	payloadFlip[len(payloadFlip)/2] ^= 0x80
	f.Add(payloadFlip)
	lyingTrailer := append([]byte{}, stream...)
	binary.LittleEndian.PutUint64(lyingTrailer[len(lyingTrailer)-containerTrailerBytes:], 1<<40)
	f.Add(lyingTrailer)

	f.Fuzz(func(t *testing.T, data []byte) {
		fld, err := Decompress(data, 1)
		if err == nil && fld == nil {
			t.Fatal("nil field with nil error")
		}
		if err != nil && !streamErrTyped(err) {
			t.Fatalf("untyped decode error: %v", err)
		}
		checkVerifyAll(t, data)
	})
}

// FuzzDecompressSequence gives the frame-walking TSPQ decoder the same
// contract, with seeds for a valid two-frame sequence, cut frame
// boundaries, and an implausible frame count.
func FuzzDecompressSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("TSPQ"))
	fld := gyre2D(12, 10)
	seq, err := CompressSequence([]*field.Field{fld, fld}, Options{Mode: ebound.Absolute, ErrBound: 0.05, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	stream := seq.Bytes
	f.Add(stream)
	for _, cut := range []int{5, 9, 17, 9 + 8 + seq.FrameSizes[0], len(stream) - 1} {
		if cut >= 0 && cut < len(stream) {
			f.Add(stream[:cut])
		}
	}
	hugeCount := append([]byte{}, stream...)
	binary.LittleEndian.PutUint32(hugeCount[5:], 1<<30)
	f.Add(hugeCount)

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := DecompressSequence(data, 1)
		if err == nil && frames == nil {
			t.Fatal("nil frames with nil error")
		}
		if err != nil && !streamErrTyped(err) {
			t.Fatalf("untyped decode error: %v", err)
		}
		checkVerifyAll(t, data)
	})
}

// FuzzSalvage drives the container-level salvage decoder and exhaustive
// scan over a TspSZ-i container: truncations, resealed chunk damage, a
// patch-length flip and a lying trailer seed the corpus. Salvage and
// VerifyAll must return only streamerr-typed errors, and anything strict
// Decompress accepts, Salvage must reproduce bit-exactly with a clean
// report while VerifyAll finds nothing.
func FuzzSalvage(f *testing.F) {
	fld := gyre2D(12, 10)
	res, err := Compress(fld, Options{Variant: TspSZi, Mode: ebound.Absolute, ErrBound: 0.05, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	stream := res.Bytes
	f.Add([]byte{})
	f.Add(stream)
	for _, cut := range []int{4, containerHeaderBytes, 12, 20, len(stream) / 2, len(stream) - containerTrailerBytes, len(stream) - 1} {
		f.Add(append([]byte{}, stream[:cut]...))
	}
	// Inner chunk damage with both seals resealed, so only the per-chunk
	// checksum sees it.
	innerOff, innerLen := innerExtent(stream)
	for _, at := range []int{innerOff + innerLen/3, innerOff + innerLen/2, innerOff + innerLen - 13} {
		mut := append([]byte{}, stream...)
		mut[at] ^= 0xff
		f.Add(resealContainer(mut, innerOff, innerLen))
	}
	patchFlip := append([]byte{}, stream...)
	patchFlip[19] ^= 0x80 // most significant patch-length byte, seal left broken
	f.Add(patchFlip)
	lyingTrailer := append([]byte{}, stream...)
	binary.LittleEndian.PutUint64(lyingTrailer[len(lyingTrailer)-containerTrailerBytes:], 1<<40)
	f.Add(lyingTrailer)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, rep, err := Salvage(data, 1)
		if err != nil && !streamErrTyped(err) {
			t.Fatalf("untyped salvage error: %v", err)
		}
		if err == nil && (got == nil || rep == nil) {
			t.Fatal("salvage returned nil field or report without error")
		}
		fails := checkVerifyAll(t, data)
		strict, serr := Decompress(data, 1)
		if serr != nil {
			return
		}
		if err != nil {
			t.Fatalf("strict decode succeeded but salvage failed: %v", err)
		}
		if !rep.Clean() {
			t.Fatalf("strict-valid archive reported damage: %+v", rep)
		}
		if len(fails) != 0 {
			t.Fatalf("strict-valid archive failed verification: %v", fails)
		}
		sc, gc := strict.Components(), got.Components()
		for c := range sc {
			for i := range sc[c] {
				if sc[c][i] != gc[c][i] {
					t.Fatalf("salvage differs from strict decode at vertex %d comp %d", i, c)
				}
			}
		}
	})
}

// innerExtent locates the inner stream of a container.
func innerExtent(data []byte) (off, n int) {
	plen := int(binary.LittleEndian.Uint64(data[containerHeaderBytes+containerCRCBytes:]))
	off = containerHeaderBytes + containerCRCBytes + 8 + plen
	return off + 8, int(binary.LittleEndian.Uint64(data[off:]))
}

// resealContainer recomputes the inner stream trailer CRC and the container
// trailer CRC after a tamper.
func resealContainer(b []byte, innerOff, innerLen int) []byte {
	inner := b[innerOff : innerOff+innerLen]
	binary.LittleEndian.PutUint32(inner[len(inner)-4:], crc32.Checksum(inner[:len(inner)-4], crcTable))
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crcTable))
	return b
}
