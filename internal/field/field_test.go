package field

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func randomField2D(nx, ny int, seed int64) *Field {
	f := New2D(nx, ny)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.U {
		f.U[i] = rng.Float32()*2 - 1
		f.V[i] = rng.Float32()*2 - 1
	}
	return f
}

func TestCloneIndependent(t *testing.T) {
	f := randomField2D(8, 6, 1)
	c := f.Clone()
	c.U[0] = 42
	if f.U[0] == 42 {
		t.Fatal("clone shares U storage")
	}
	if c.Grid != f.Grid {
		t.Fatal("clone should share grid")
	}
}

func TestComponents(t *testing.T) {
	if got := len(New2D(3, 3).Components()); got != 2 {
		t.Errorf("2D components = %d, want 2", got)
	}
	if got := len(New3D(3, 3, 3).Components()); got != 3 {
		t.Errorf("3D components = %d, want 3", got)
	}
}

// Sampling at a vertex must return exactly the stored vector.
func TestSampleAtVertices(t *testing.T) {
	f := randomField2D(6, 5, 2)
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		vec, _, ok := f.Sample(p)
		if !ok {
			t.Fatalf("vertex %d outside domain", idx)
		}
		want := f.VecAt(idx)
		for d := 0; d < 2; d++ {
			if math.Abs(vec[d]-want[d]) > 1e-9 {
				t.Fatalf("vertex %d: sample %v, want %v", idx, vec, want)
			}
		}
	}
}

// A linear field must be reproduced exactly by PL interpolation.
func TestSampleReproducesLinearField(t *testing.T) {
	f := New3D(4, 5, 3)
	lin := func(x, y, z float64) (float32, float32, float32) {
		return float32(1 + 2*x - y + 0.5*z), float32(-3 + x + 4*y - z), float32(0.25*x - 0.5*y + z)
	}
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		f.U[idx], f.V[idx], f.W[idx] = lin(p[0], p[1], p[2])
	}
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 300; n++ {
		p := [3]float64{rng.Float64() * 3, rng.Float64() * 4, rng.Float64() * 2}
		vec, _, ok := f.Sample(p)
		if !ok {
			t.Fatalf("point %v outside", p)
		}
		wu, wv, ww := lin(p[0], p[1], p[2])
		if math.Abs(vec[0]-float64(wu)) > 1e-5 || math.Abs(vec[1]-float64(wv)) > 1e-5 || math.Abs(vec[2]-float64(ww)) > 1e-5 {
			t.Fatalf("sample at %v = %v, want (%v,%v,%v)", p, vec, wu, wv, ww)
		}
	}
}

// The cell Sample returns names the vertices it read, which is what the
// involved-vertex tracking records: perturbing every other vertex leaves
// the sample unchanged, and perturbing one of them changes it.
func TestSampleTracksVertices(t *testing.T) {
	f := randomField2D(5, 5, 4)
	p := [3]float64{1.3, 2.6, 0}
	vec, cell, ok := f.Sample(p)
	if !ok {
		t.Fatal("sample failed")
	}
	read := map[int]bool{}
	for _, v := range f.Grid.CellVertices(cell, nil) {
		read[v] = true
	}
	g := f.Clone()
	for v := range g.U {
		if !read[v] {
			g.U[v] += 100
			g.V[v] -= 100
		}
	}
	if got, gotCell, _ := g.Sample(p); got != vec || gotCell != cell {
		t.Fatalf("perturbing the other vertices moved the sample: %v in cell %d, want %v in %d", got, gotCell, vec, cell)
	}
	for v := range read {
		h := f.Clone()
		h.U[v] += 100
		if got, _, _ := h.Sample(p); got == vec {
			t.Fatalf("perturbing cell vertex %d left the sample unchanged", v)
		}
	}
}

func TestSampleOutside(t *testing.T) {
	f := randomField2D(4, 4, 5)
	if _, _, ok := f.Sample([3]float64{-1, 0, 0}); ok {
		t.Error("expected outside")
	}
}

func TestRange(t *testing.T) {
	f := New2D(2, 2)
	f.U = []float32{-3, 0, 1, 2}
	f.V = []float32{5, -1, 0, 0}
	lo, hi := f.Range()
	if lo != -3 || hi != 5 {
		t.Errorf("Range = (%v,%v), want (-3,5)", lo, hi)
	}
}

func TestSizeBytes(t *testing.T) {
	if got, want := New2D(3, 3).SizeBytes(), 3*3*2*4; got != want {
		t.Errorf("2D SizeBytes = %d, want %d", got, want)
	}
	if got, want := New3D(2, 2, 2).SizeBytes(), 8*3*4; got != want {
		t.Errorf("3D SizeBytes = %d, want %d", got, want)
	}
}

func TestWriteReadRoundTrip2D(t *testing.T) {
	f := randomField2D(9, 7, 6)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dim() != 2 || g.NumVertices() != f.NumVertices() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := range f.U {
		if f.U[i] != g.U[i] || f.V[i] != g.V[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
}

func TestWriteReadRoundTrip3D(t *testing.T) {
	f := New3D(3, 4, 5)
	rng := rand.New(rand.NewSource(7))
	for i := range f.U {
		f.U[i], f.V[i], f.W[i] = rng.Float32(), rng.Float32(), rng.Float32()
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.U {
		if f.U[i] != g.U[i] || f.V[i] != g.V[i] || f.W[i] != g.W[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
}

func TestReadFromRejectsBadMagic(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("NOPE00000000000000000000"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReadFromRejectsTruncated(t *testing.T) {
	f := randomField2D(4, 4, 8)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrom(bytes.NewReader(buf.Bytes()[:buf.Len()-5])); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

// forgeHeader builds a TSPF header with the given dims and an optional
// payload tail, bypassing WriteTo's validity.
func forgeHeader(dim, nx, ny, nz uint32, tail int) []byte {
	buf := []byte(fileMagic)
	for _, h := range []uint32{dim, nx, ny, nz} {
		buf = binary.LittleEndian.AppendUint32(buf, h)
	}
	return append(buf, make([]byte, tail)...)
}

func TestReadFromRejectsFabricatedDims(t *testing.T) {
	for _, tc := range []struct {
		name string
		hdr  []byte
	}{
		{"2D nx beyond axis cap", forgeHeader(2, 1<<30, 4, 0, 0)},
		{"3D nz beyond axis cap", forgeHeader(3, 4, 4, 1<<30, 0)},
		{"2D degenerate axis", forgeHeader(2, 1, 4, 0, 0)}, // used to panic in New2D
		{"bad dimensionality", forgeHeader(7, 4, 4, 4, 0)},
		{"unbacked vertex claim", forgeHeader(2, 1<<20, 1<<20, 0, 64)},
		// Every axis at the cap: each check passes but the product is
		// 2^63, which wraps a signed int — this used to panic in make.
		{"all-max axes product overflow", forgeHeader(3, 1<<21, 1<<21, 1<<21, 0)},
	} {
		if _, err := ReadFrom(bytes.NewReader(tc.hdr)); err == nil {
			t.Errorf("%s: fabricated header accepted", tc.name)
		}
	}
}
