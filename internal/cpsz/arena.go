package cpsz

import (
	"compress/flate"
	"sync"

	"tspsz/internal/flatedec"
	"tspsz/internal/streamerr"
)

// The entropy path's scratch arena. Every hot per-chunk buffer and every
// flate coder lives in a pooled scratch object instead of being allocated
// per chunk: the encode side reuses one Huffman bit-buffer and one
// flate.Writer per worker, the decode side one inflate target and one
// flatedec.Decoder (whose Huffman tables are rebuilt in place, so a warm
// scratch inflates with zero allocations — compress/flate reallocates its
// decode tables per dynamic block even through Resetter.Reset), and the
// directory walk borrows its offset/size arrays from the same arena.
//
// Ownership rules (see DESIGN.md §3, verified mechanically by tsplint's
// poolguard): a scratch is owned by exactly one goroutine between
// getScratch and putScratch, released exactly once on every exit path,
// and never touched after the put; every slice it hands out (buf, dir
// arrays, deflate output) aliases its arena and must not be returned,
// stored globally, or sent on a channel past the put. The only buffers
// that outlive a worker iteration are the per-chunk payload buffers from
// chunkBufPool: an encode worker deposits one into its captured output
// slot, and writeChunkPayloads — summarized by the analyzer as releasing
// its parameter — re-pools every slot once it is written (repoolChunks on
// a failure path).
type scratch struct {
	bits []byte // Huffman bit buffer / inflate target

	// Decode side: one reusable allocation-free inflater.
	inf flatedec.Decoder

	// Encode side: one flate.Writer writing into an append sink.
	fw *flate.Writer
	aw appendWriter

	// Directory arrays, sized from the validated chunk count.
	dirU    []int
	dirOff  []int
	dirCRC  []uint32
	dirMode []byte
}

var scratchPool sync.Pool

// chunkBufPool recycles the per-chunk payload buffers whose ownership
// crosses goroutines: an encode worker fills one, the section writer
// writes it out and returns it here.
var chunkBufPool sync.Pool

func getChunkBuf() []byte {
	if p, ok := chunkBufPool.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return make([]byte, 0, chunkSymbols)
}

func putChunkBuf(b []byte) {
	chunkBufPool.Put(&b)
}

func getScratch() *scratch {
	if s, ok := scratchPool.Get().(*scratch); ok {
		return s
	}
	return &scratch{}
}

func putScratch(s *scratch) {
	scratchPool.Put(s)
}

// buf returns a length-n byte slice backed by the arena, growing the arena
// geometrically when needed. Callers size n from a validated chunk
// directory entry, so the arena's high-water mark is bounded by the largest
// legitimate chunk.
func (s *scratch) buf(n int) []byte {
	if cap(s.bits) < n {
		s.bits = make([]byte, n)
	}
	s.bits = s.bits[:n]
	return s.bits
}

// dirArrays returns the directory's usize/offset/crc/mode arrays for cc
// chunks, all arena-backed.
func (s *scratch) dirArrays(cc int) (u, off []int, crc []uint32, mode []byte) {
	if cap(s.dirU) < cc {
		s.dirU = make([]int, cc)
		s.dirOff = make([]int, cc)
		s.dirCRC = make([]uint32, cc)
		s.dirMode = make([]byte, cc)
	}
	return s.dirU[:cc], s.dirOff[:cc], s.dirCRC[:cc], s.dirMode[:cc]
}

// inflateInto inflates data into exactly dst with the pooled decoder,
// rejecting payloads that inflate short or long.
func (s *scratch) inflateInto(data []byte, dst []byte) error {
	if err := s.inf.Decode(dst, data); err != nil {
		return streamerr.Corrupt("inflate", "chunk declaring %d bytes: %v", len(dst), err)
	}
	return nil
}

// deflate DEFLATE-compresses data, appending to dst with the pooled writer
// and returning the extended slice.
func (s *scratch) deflate(dst []byte, data []byte) ([]byte, error) {
	s.aw.buf = dst
	if s.fw == nil {
		var err error
		s.fw, err = flate.NewWriter(&s.aw, flate.DefaultCompression)
		if err != nil {
			return nil, err
		}
	} else {
		s.fw.Reset(&s.aw)
	}
	if _, err := s.fw.Write(data); err != nil {
		return nil, err
	}
	if err := s.fw.Close(); err != nil {
		return nil, err
	}
	return s.aw.buf, nil
}

// appendWriter adapts an append-grown byte slice to io.Writer for the
// pooled flate.Writer.
type appendWriter struct{ buf []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
