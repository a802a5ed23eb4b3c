// Package field holds the vector field container used by TspSZ: a structure
// of arrays of float32 component samples over a regular simplicial grid,
// with piecewise-linear sampling (Sampler) and raw binary I/O.
package field

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"tspsz/internal/grid"
	"tspsz/internal/streamerr"
)

// Field is a 2D or 3D vector field sampled at the vertices of a regular
// grid. Components are stored as separate float32 slices (U, V, and W for 3D
// fields; W is nil for 2D fields), matching the storage layout of the
// datasets in the paper.
type Field struct {
	Grid *grid.Grid
	U, V []float32
	W    []float32 // nil in 2D
}

// New2D allocates a zero-valued 2D field over an nx×ny grid.
func New2D(nx, ny int) *Field {
	g := grid.New2D(nx, ny)
	n := g.NumVertices()
	return &Field{Grid: g, U: make([]float32, n), V: make([]float32, n)}
}

// New3D allocates a zero-valued 3D field over an nx×ny×nz grid.
func New3D(nx, ny, nz int) *Field {
	g := grid.New3D(nx, ny, nz)
	n := g.NumVertices()
	return &Field{Grid: g, U: make([]float32, n), V: make([]float32, n), W: make([]float32, n)}
}

// Dim reports the spatial dimension (2 or 3).
func (f *Field) Dim() int { return f.Grid.Dim() }

// NumVertices reports the number of sample points.
func (f *Field) NumVertices() int { return f.Grid.NumVertices() }

// Components returns the component slices in order (u, v[, w]).
func (f *Field) Components() [][]float32 {
	if f.W == nil {
		return [][]float32{f.U, f.V}
	}
	return [][]float32{f.U, f.V, f.W}
}

// Clone returns a deep copy sharing the (immutable) grid.
func (f *Field) Clone() *Field {
	c := &Field{Grid: f.Grid}
	c.U = append([]float32(nil), f.U...)
	c.V = append([]float32(nil), f.V...)
	if f.W != nil {
		c.W = append([]float32(nil), f.W...)
	}
	return c
}

// VecAt returns the vector at vertex idx. In 2D the third component is 0.
func (f *Field) VecAt(idx int) [3]float64 {
	v := [3]float64{float64(f.U[idx]), float64(f.V[idx]), 0}
	if f.W != nil {
		v[2] = float64(f.W[idx])
	}
	return v
}

// Sample evaluates the piecewise-linear interpolant at point p. It returns
// the interpolated vector, the cell used, and ok == false when p is outside
// the domain or has a NaN coordinate. The vertices of the cell
// (grid.CellVertices) are the ones the interpolation read: the
// involved-vertex tracking TspSZ-I relies on (Algorithm 2, line 16) records
// them per cell. A walk of nearby points samples faster through one
// Sampler.
func (f *Field) Sample(p [3]float64) (vec [3]float64, cell int, ok bool) {
	s := NewSampler(f)
	vec[0], vec[1], vec[2], cell, ok = s.Sample(p[0], p[1], p[2])
	return vec, cell, ok
}

// Range returns the global min and max over all components, as used by the
// PSNR definition in §VIII-B.
func (f *Field) Range() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, comp := range f.Components() {
		for _, x := range comp {
			v := float64(x)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// SizeBytes reports the uncompressed payload size (float32 per sample per
// component), the numerator of the compression ratio.
func (f *Field) SizeBytes() int {
	return 4 * f.NumVertices() * len(f.Components())
}

const fileMagic = "TSPF"

// WriteTo serializes the field with a small self-describing header:
// magic, dim, nx, ny, nz, then each component as little-endian float32.
func (f *Field) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	if _, err := bw.WriteString(fileMagic); err != nil {
		return n, err
	}
	n += 4
	nx, ny, nz := f.Grid.Dims()
	hdr := []uint32{uint32(f.Dim()), uint32(nx), uint32(ny), uint32(nz)}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return n, err
		}
		n += 4
	}
	for _, comp := range f.Components() {
		if err := binary.Write(bw, binary.LittleEndian, comp); err != nil {
			return n, err
		}
		n += int64(4 * len(comp))
	}
	return n, bw.Flush()
}

// maxAxis caps each header axis. 2^21 samples per axis is far beyond any
// dataset in the paper and keeps a fabricated header from sizing a giant
// allocation before the stream proves it carries the bytes.
const maxAxis = 1 << 21

// ReadFrom deserializes a field written by WriteTo. The header is
// untrusted input: each axis is validated before any size computation
// (the old path let a 20-byte header claim arbitrary dimensions, driving
// an enormous allocation — or a panic for axes below the grid minimum),
// and component data is read in bounded chunks so committed memory grows
// only as fast as the stream actually delivers samples.
func ReadFrom(r io.Reader) (*Field, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, readErr("field magic", err)
	}
	if string(magic) != fileMagic {
		return nil, streamerr.Header("field", "bad magic, not a TSPF file")
	}
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, readErr("field header", err)
		}
	}
	dim, nx, ny, nz := int(hdr[0]), int(hdr[1]), int(hdr[2]), int(hdr[3])
	ncomp := 2
	switch dim {
	case 2:
		nz = 1 // a 2D header cannot smuggle a third axis into the product
	case 3:
		ncomp = 3
		if nz < 2 || nz > maxAxis {
			return nil, streamerr.Header("field", "implausible dims %dx%dx%d", nx, ny, nz)
		}
	default:
		return nil, streamerr.Header("field", "unsupported dimension %d", dim)
	}
	if nx < 2 || nx > maxAxis || ny < 2 || ny > maxAxis {
		return nil, streamerr.Header("field", "implausible dims %dx%dx%d", nx, ny, nz)
	}
	// Each axis is ≤ 2^21, so the three-axis product is ≤ 2^63 — which
	// fits uint64 but not int: at the all-max boundary it wraps negative
	// and make would panic. Compute in uint64 and reject anything that
	// cannot index a slice.
	nv64 := uint64(nx) * uint64(ny) * uint64(nz)
	if nv64 > math.MaxInt {
		return nil, streamerr.Header("field", "implausible dims %dx%dx%d", nx, ny, nz)
	}
	nv := int(nv64)
	comps := make([][]float32, ncomp)
	for c := range comps {
		vals, err := readComponent(br, nv)
		if err != nil {
			return nil, err
		}
		comps[c] = vals
	}
	f := &Field{U: comps[0], V: comps[1]}
	if dim == 2 {
		f.Grid = grid.New2D(nx, ny)
	} else {
		f.Grid = grid.New3D(nx, ny, nz)
		f.W = comps[2]
	}
	return f, nil
}

// readComponent reads n little-endian float32 samples in bounded chunks,
// growing the result as bytes arrive, so n may come from an untrusted
// (axis-validated) header without pre-committing the full allocation.
func readComponent(br *bufio.Reader, n int) ([]float32, error) {
	const chunk = 1 << 18 // 1 MiB of float32 samples per read
	tmp := make([]float32, min(chunk, n))
	out := make([]float32, 0, min(chunk, n))
	for len(out) < n {
		t := tmp[:min(chunk, n-len(out))]
		if err := binary.Read(br, binary.LittleEndian, t); err != nil {
			return nil, readErr("field component", err)
		}
		out = append(out, t...)
	}
	return out, nil
}

// readErr classifies a read failure: hitting end of stream mid-section
// means the file is truncated; any other error is a genuine I/O failure
// and is passed through untyped.
func readErr(section string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return streamerr.Wrap(streamerr.ErrTruncated, section, err)
	}
	return fmt.Errorf("field: reading %s: %w", section, err)
}
