package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"tspsz/internal/bitmap"
	"tspsz/internal/field"
	"tspsz/internal/obs"
	"tspsz/internal/streamerr"
)

// The TspSZ container wraps the cpSZ stream with a variant tag and the
// TspSZ-i correction patch (compressed₂ in Algorithm 3):
//
//	magic "TSPZ" | version u8 | variant u8 | ncomp u8 | pad u8
//	u32 CRC32C of the 8 header bytes
//	u64 patchLen | DEFLATE(patch) | u64 innerLen | inner cpSZ stream
//	u64 totalLen | u32 CRC32C of all preceding bytes
//
// The patch body is: u64 count | varint index deltas | per-component
// float32 values (count × ncomp × 4 bytes, little endian).
//
// The header CRC and the whole-container trailer mirror the inner cpSZ
// stream's integrity layers. Version 3 is the one container format this
// build writes and reads; any other version byte is ErrVersion.
const containerMagic = "TSPZ"
const containerVersion = 3

// containerHeaderBytes is the fixed header, followed by containerCRCBytes
// of CRC32C; the container ends with a containerTrailerBytes trailer (u64
// length + u32 CRC32C).
const (
	containerHeaderBytes  = 8
	containerCRCBytes     = 4
	containerTrailerBytes = 12
)

// crcTable selects the Castagnoli polynomial (hardware CRC path).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// patchSet is the correction set V of Algorithm 3: vertex indices restored
// to their original values, with those values.
type patchSet struct {
	indices []int
	values  [][]float32 // [component][entry]
}

// buildPatch collects original values of all patched vertices in ascending
// index order.
func buildPatch(orig *field.Field, patched *bitmap.Bitmap) patchSet {
	var p patchSet
	comps := orig.Components()
	p.values = make([][]float32, len(comps))
	for i := 0; i < patched.Len(); i++ {
		if !patched.Get(i) {
			continue
		}
		p.indices = append(p.indices, i)
		for c, vals := range comps {
			p.values[c] = append(p.values[c], vals[i])
		}
	}
	return p
}

// apply overwrites f's values at the patch indices.
func (p *patchSet) apply(f *field.Field) error {
	comps := f.Components()
	if len(p.values) != len(comps) {
		return streamerr.Corrupt("patch", "patch has %d components, field has %d", len(p.values), len(comps))
	}
	n := f.NumVertices()
	for ei, idx := range p.indices {
		if idx < 0 || idx >= n {
			return streamerr.Corrupt("patch", "patch index %d out of range [0,%d)", idx, n)
		}
		for c, vals := range comps {
			vals[idx] = p.values[c][ei]
		}
	}
	return nil
}

func (p *patchSet) marshal(ncomp int) ([]byte, error) {
	if len(p.indices) > 1 && !sort.IntsAreSorted(p.indices) {
		return nil, errors.New("core: patch indices must be sorted")
	}
	var body []byte
	body = binary.AppendUvarint(body, uint64(len(p.indices)))
	prev := 0
	for _, idx := range p.indices {
		body = binary.AppendUvarint(body, uint64(idx-prev))
		prev = idx
	}
	for c := 0; c < ncomp && c < len(p.values); c++ {
		for _, v := range p.values[c] {
			bits := math.Float32bits(v)
			body = append(body, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
		}
	}
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(body); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// maxPatchInflateRatio is DEFLATE's worst-case expansion (~1032:1);
// a patch section claiming more is fabricated, and capping the inflate
// keeps it from allocating without bound.
const maxPatchInflateRatio = 1032

func unmarshalPatch(packed []byte, ncomp int) (patchSet, error) {
	var p patchSet
	capacity := maxPatchInflateRatio*uint64(len(packed)) + 64
	r := flate.NewReader(bytes.NewReader(packed))
	body, err := io.ReadAll(io.LimitReader(r, int64(capacity)+1))
	r.Close()
	if err != nil {
		return p, streamerr.Wrap(streamerr.ErrCorrupt, "patch", err)
	}
	if uint64(len(body)) > capacity {
		return p, streamerr.Corrupt("patch", "patch inflates beyond plausible ratio")
	}
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return p, streamerr.Truncated("patch", "patch count cut off")
	}
	body = body[n:]
	// Each entry takes at least 1 index byte plus 4 value bytes per
	// component; reject counts the body cannot back before allocating.
	if count > uint64(len(body)) {
		return p, streamerr.Corrupt("patch", "patch count %d exceeds body size %d", count, len(body))
	}
	p.indices = make([]int, count)
	prev := uint64(0)
	for i := range p.indices {
		d, n := binary.Uvarint(body)
		if n <= 0 {
			return p, streamerr.Truncated("patch", "patch index cut off")
		}
		prev += d
		p.indices[i] = int(prev)
		body = body[n:]
	}
	if len(body) != int(count)*ncomp*4 {
		return p, streamerr.Corrupt("patch", "patch values: %d bytes, want %d", len(body), int(count)*ncomp*4)
	}
	p.values = make([][]float32, ncomp)
	for c := 0; c < ncomp; c++ {
		p.values[c] = make([]float32, count)
		for i := range p.values[c] {
			p.values[c][i] = math.Float32frombits(binary.LittleEndian.Uint32(body))
			body = body[4:]
		}
	}
	return p, nil
}

// buildContainer assembles the container and also reports the packed patch
// size, which the observability layer exposes as its own counter.
func buildContainer(variant Variant, patch patchSet, inner []byte, ncomp int) ([]byte, int, error) {
	out := make([]byte, 0, containerHeaderBytes+containerCRCBytes+len(inner)+containerTrailerBytes)
	out = append(out, containerMagic...)
	out = append(out, containerVersion, byte(variant), byte(ncomp), 0)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[:containerHeaderBytes], crcTable))
	packed, err := patch.marshal(ncomp)
	if err != nil {
		return nil, 0, err
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(len(packed)))
	out = append(out, packed...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(inner)))
	out = append(out, inner...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(out)))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable)), len(packed), nil
}

// sealContainer runs buildContainer under a container stage span and charges
// the framing overhead (everything beyond the inner cpSZ stream) plus the
// packed patch to the byte counters, preserving the partition invariant
// that the section counters sum to bytes_out.
func sealContainer(c *obs.Collector, variant Variant, patch patchSet, inner []byte, ncomp int) ([]byte, error) {
	var container []byte
	var patchBytes int
	if err := c.Do(obs.StageContainer, 1, int64(len(patch.indices)), func() error {
		var err error
		container, patchBytes, err = buildContainer(variant, patch, inner, ncomp)
		return err
	}); err != nil {
		return nil, err
	}
	if c != nil {
		c.Add(obs.CtrBytesPatch, int64(patchBytes))
		overhead := int64(len(container) - len(inner))
		c.Add(obs.CtrBytesContainer, overhead)
		c.Add(obs.CtrBytesOut, overhead)
	}
	return container, nil
}

// container is one container split into its parts. extent reports an
// inner-stream length that disagrees with the container — ErrTruncated
// when it runs past the container's end, ErrCorrupt when bytes trail it —
// in which case inner is clamped to the bytes the container holds, which
// salvage still walks.
type container struct {
	variant  Variant
	ncomp    int
	packed   []byte // DEFLATE-packed correction patch
	inner    []byte // inner cpSZ stream
	innerOff int    // offset of inner within the container
	extent   error
}

// readContainer reads a container and slices out the still-packed patch
// and the inner stream without decoding either. It returns the
// whole-container seal's verdict (nil when the trailer verifies) next to
// err, the first failure that leaves the parts unlocated. Length, magic,
// version and header CRC are checked before the seal and leave it nil; the
// component count and the patch and inner length fields are checked after
// it, so a caller reporting seal, then err, then c.extent keeps strict
// decode's order.
func readContainer(data []byte) (c container, seal, err error) {
	if len(data) >= 4 && string(data[:4]) != containerMagic {
		return c, nil, streamerr.Header("container", "bad magic, not a TspSZ container")
	}
	if len(data) < containerHeaderBytes {
		return c, nil, streamerr.Truncated("container", "%d of %d header bytes", len(data), containerHeaderBytes)
	}
	if data[4] != containerVersion {
		return c, nil, streamerr.Version("container", data[4]).WithOffset(4)
	}
	if len(data) < containerHeaderBytes+containerCRCBytes+containerTrailerBytes {
		return c, nil, streamerr.Truncated("container", "%d bytes, a container needs at least %d",
			len(data), containerHeaderBytes+containerCRCBytes+containerTrailerBytes)
	}
	stored := binary.LittleEndian.Uint32(data[containerHeaderBytes:])
	if got := crc32.Checksum(data[:containerHeaderBytes], crcTable); got != stored {
		return c, nil, streamerr.Corrupt("container", "header CRC32C %08x, stored %08x", got, stored)
	}
	seal = verifyContainerTrailer(data)
	body := data[:len(data)-containerTrailerBytes]
	c.variant = Variant(data[5])
	c.ncomp = int(data[6])
	if c.ncomp != 2 && c.ncomp != 3 {
		return container{}, seal, streamerr.Header("container", "invalid component count %d", c.ncomp)
	}
	off := containerHeaderBytes + containerCRCBytes
	if off+8 > len(body) {
		return container{}, seal, streamerr.Truncated("container", "patch length cut off").WithOffset(int64(off))
	}
	plen := binary.LittleEndian.Uint64(body[off:])
	off += 8
	if plen > uint64(len(body)-off) {
		return container{}, seal, streamerr.Truncated("patch", "patch claims %d bytes, %d remain", plen, len(body)-off).WithOffset(int64(off))
	}
	c.packed = body[off : off+int(plen)]
	off += int(plen)
	if off+8 > len(body) {
		return container{}, seal, streamerr.Truncated("container", "inner length cut off").WithOffset(int64(off))
	}
	ilen := binary.LittleEndian.Uint64(body[off:])
	off += 8
	if ilen > uint64(len(body)-off) {
		c.extent = streamerr.Truncated("inner stream", "inner stream claims %d bytes, %d remain", ilen, len(body)-off).WithOffset(int64(off))
		ilen = uint64(len(body) - off)
	} else if off+int(ilen) != len(body) {
		c.extent = streamerr.Corrupt("container", "%d trailing bytes after inner stream", len(body)-off-int(ilen))
	}
	c.inner, c.innerOff = body[off:off+int(ilen)], off
	return c, seal, nil
}

// verifyContainerTrailer checks the whole-container trailer: a declared
// length past the container is truncation, any other mismatch corruption.
func verifyContainerTrailer(data []byte) error {
	body := len(data) - containerTrailerBytes
	if plen := binary.LittleEndian.Uint64(data[body:]); plen != uint64(body) {
		if plen > uint64(body) {
			return streamerr.Truncated("container trailer", "trailer declares %d payload bytes, container carries %d", plen, body)
		}
		return streamerr.Corrupt("container trailer", "trailer declares %d payload bytes, container carries %d", plen, body)
	}
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(data[:len(data)-4], crcTable); got != stored {
		return streamerr.Corrupt("container trailer", "container CRC32C %08x, stored %08x", got, stored)
	}
	return nil
}

// parseContainer strictly reads a container: seal, framing and inner extent
// must all hold, and the patch must decode.
func parseContainer(data []byte) (Variant, patchSet, []byte, error) {
	c, seal, err := readContainer(data)
	if seal != nil {
		err = seal
	}
	if err == nil {
		err = c.extent
	}
	if err != nil {
		return 0, patchSet{}, nil, err
	}
	patch, err := unmarshalPatch(c.packed, c.ncomp)
	if err != nil {
		return 0, patchSet{}, nil, err
	}
	return c.variant, patch, c.inner, nil
}
