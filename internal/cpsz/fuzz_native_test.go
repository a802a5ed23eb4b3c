package cpsz

import (
	"encoding/binary"
	"errors"
	"testing"

	"tspsz/internal/ebound"
	"tspsz/internal/streamerr"
)

// streamErrTyped reports whether err carries one of the four streamerr
// failure classes.
func streamErrTyped(err error) bool {
	return errors.Is(err, streamerr.ErrTruncated) || errors.Is(err, streamerr.ErrCorrupt) ||
		errors.Is(err, streamerr.ErrVersion) || errors.Is(err, streamerr.ErrHeader)
}

// FuzzDecompressTruncated feeds the decompressor arbitrary mutations of a
// valid stream AND every reachable byte prefix of it: truncation anywhere
// in the header, codebook, chunk directory, packed payload, or trailer must
// surface as a streamerr-typed error — never a panic, hang, unbounded
// allocation, or silent success with a nil field.
func FuzzDecompressTruncated(f *testing.F) {
	field2d := gyre2D(16, 12)
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.05, Workers: 1}
	valid, err := Compress(field2d, opts)
	if err != nil {
		f.Fatal(err)
	}
	stream := valid.Bytes
	f.Add([]byte{}, uint16(0))
	f.Add(stream, uint16(len(stream)))
	for _, cut := range []int{1, 4, 8, 27, 28, 31, 32, len(stream) / 2, len(stream) - trailerBytes, len(stream) - 1} {
		if cut >= 0 && cut < len(stream) {
			f.Add(stream[:cut], uint16(cut))
		}
	}
	// Version-byte seeds: every generation but the current one is refused
	// with ErrVersion before any other byte is interpreted.
	for _, v := range []byte{0, 1, 2, 3, 5, 0xff} {
		old := append([]byte{}, stream...)
		old[4] = v
		f.Add(old, uint16(0))
	}
	// Regression seed for the unbounded-inflate crasher: a chunk directory
	// claiming a huge uncompressed size from a tiny payload must be
	// rejected by the size cap, not materialized by io.ReadAll.
	bomb := buildSymbolSection(f, manySyms(chunkSymbols+10), formatVersion,
		func(_ *uint64, usizes, _ []uint64, _ []uint32, _ []byte) { usizes[0] = 1 << 40 })
	f.Add(append(append([]byte{}, stream[:sealedHeaderBytes]...), bomb...), uint16(0))
	// Bit-packed seeds: a section whose chunks all take the packed fast
	// path, and a directory whose mode column lies about it.
	uniform := make([]uint32, chunkSymbols+100)
	for i := range uniform {
		uniform[i] = uint32(i % 64)
	}
	packedSec := sealedSymbolSection(f, uniform)
	f.Add(append(append([]byte{}, stream[:sealedHeaderBytes]...), packedSec...), uint16(0))
	modeLie := buildSymbolSection(f, manySyms(chunkSymbols+10), formatVersion,
		func(_ *uint64, _, _ []uint64, _ []uint32, modes []byte) { modes[0] = symChunkPacked })
	f.Add(append(append([]byte{}, stream[:sealedHeaderBytes]...), modeLie...), uint16(0))
	// Packed base/width lies sealed behind a valid per-chunk CRC: the
	// structural checks, not the checksums, must reject these.
	for _, pl := range [][]byte{
		append(binary.AppendUvarint(nil, 1<<33), 0),   // base past the u32 symbol range
		append([]byte{0x00, 33}, make([]byte, 64)...), // width beyond 32 bits
		{0x80, 0x01}, // base uvarint swallows the width byte
	} {
		sec := packedSection(f, uniform[:500], pl, len(pl), len(pl))
		f.Add(append(append([]byte{}, stream[:sealedHeaderBytes]...), sec...), uint16(0))
	}
	// A chunk mode byte flipped in a real archive with the stream trailer
	// resealed, so every CRC passes and only per-mode validation objects.
	flipped := append([]byte{}, stream...)
	flipped[walkV4(f, stream)[0].modeOff] ^= 1
	f.Add(resealTrailer(flipped), uint16(0))
	// Checksum-tamper regression seeds: a flipped per-chunk CRC in the
	// directory, and a trailer lying about the payload length.
	crcFlip := append([]byte{}, stream...)
	crcFlip[sealedHeaderBytes+10] ^= 0x01
	f.Add(crcFlip, uint16(0))
	lyingTrailer := append([]byte{}, stream...)
	binary.LittleEndian.PutUint64(lyingTrailer[len(lyingTrailer)-trailerBytes:], 1<<40)
	f.Add(lyingTrailer, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		// Arbitrary (mutated) bytes: decode must fail typed or succeed.
		fld, err := Decompress(data, 1)
		if err == nil && fld == nil {
			t.Fatal("nil field with nil error on mutated input")
		}
		if err != nil && !streamErrTyped(err) {
			t.Fatalf("untyped decode error: %v", err)
		}
		// The checksum scan obeys the same contract.
		for _, fe := range VerifyAll(data) {
			if !streamErrTyped(fe) {
				t.Fatalf("untyped verify error: %v", fe)
			}
		}
		// Exact prefix of the known-valid stream, length chosen by the
		// fuzzer: only the full stream may decode successfully.
		prefix := stream[:int(n)%(len(stream)+1)]
		fld, err = Decompress(prefix, 1)
		if len(prefix) < len(stream) && err == nil {
			t.Fatalf("truncated stream (%d of %d bytes) decoded without error", len(prefix), len(stream))
		}
		if err == nil && fld == nil {
			t.Fatal("nil field with nil error on full stream")
		}
	})
}

// FuzzSalvage feeds the salvage decoder the strict decoder's hostile
// corpus plus resealed per-chunk corruptions of a real archive. Salvage
// must never panic, every error must be streamerr-typed, every report must
// be self-consistent — and on any stream the strict decoder accepts,
// salvage must agree bit-exactly with an all-clean report. The exhaustive
// verify scan obeys the same typing contract.
func FuzzSalvage(f *testing.F) {
	field2d := gyre2D(16, 12)
	opts := Options{Mode: ebound.Absolute, ErrBound: 0.05, Workers: 1}
	valid, err := Compress(field2d, opts)
	if err != nil {
		f.Fatal(err)
	}
	stream := valid.Bytes
	f.Add([]byte{})
	f.Add(stream)
	for _, cut := range []int{4, headerBytes, sealedHeaderBytes, len(stream) / 2, len(stream) - trailerBytes, len(stream) - 1} {
		f.Add(append([]byte{}, stream[:cut]...))
	}
	// Every chunk of the archive corrupted one at a time, trailer resealed:
	// the salvage sweep's own seed corpus.
	for _, r := range walkV4(f, stream) {
		if r.csize == 0 {
			continue
		}
		mut := append([]byte{}, stream...)
		mut[r.payOff+r.csize/2] ^= 0xff
		f.Add(resealTrailer(mut))
		// And with the seal left broken.
		mut2 := append([]byte{}, stream...)
		mut2[r.payOff] ^= 0xff
		f.Add(mut2)
	}
	// Directory CRC column and trailer tampers.
	crcFlip := append([]byte{}, stream...)
	crcFlip[sealedHeaderBytes+10] ^= 0x01
	f.Add(crcFlip)
	lyingTrailer := append([]byte{}, stream...)
	binary.LittleEndian.PutUint64(lyingTrailer[len(lyingTrailer)-trailerBytes:], 1<<40)
	f.Add(lyingTrailer)

	f.Fuzz(func(t *testing.T, data []byte) {
		fld, rep, err := Salvage(data, 1)
		if err != nil && !streamErrTyped(err) {
			t.Fatalf("untyped salvage error: %v", err)
		}
		if err == nil {
			if fld == nil || rep == nil {
				t.Fatal("salvage returned nil field or report without error")
			}
			if rep.Damaged == nil || rep.DamagedVertices != rep.Damaged.Count() {
				t.Fatalf("inconsistent damage accounting: %d vs bitmap", rep.DamagedVertices)
			}
			if rep.TotalVertices != fld.NumVertices() {
				t.Fatalf("TotalVertices %d, field has %d", rep.TotalVertices, fld.NumVertices())
			}
		}
		for _, fe := range VerifyAll(data) {
			if !streamErrTyped(fe) {
				t.Fatalf("untyped verify-all failure: %v", fe)
			}
		}
		// Differential contract: anything the strict decoder accepts,
		// salvage must reproduce exactly and report clean.
		strict, serr := Decompress(data, 1)
		if serr != nil {
			return
		}
		if err != nil {
			t.Fatalf("strict decode succeeded but salvage failed: %v", err)
		}
		if !rep.Clean() {
			t.Fatalf("strict-valid stream reported damage: %+v", rep)
		}
		sc, fc := strict.Components(), fld.Components()
		for c := range sc {
			for i := range sc[c] {
				if sc[c][i] != fc[c][i] {
					t.Fatalf("salvage differs from strict decode at vertex %d comp %d", i, c)
				}
			}
		}
	})
}
