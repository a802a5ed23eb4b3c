package ebound

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tspsz/internal/field"
)

// checkAgainstReference holds VertexBound and VertexBoundSoS to the
// reference derivation at every vertex of f, in both modes: the bounds must
// agree bit for bit (math.Float64bits) and so must hasCP.
func checkAgainstReference(t testing.TB, name string, f *field.Field) {
	t.Helper()
	for _, mode := range []Mode{Absolute, Relative} {
		for idx := 0; idx < f.NumVertices(); idx++ {
			eb, cp := VertexBound(f, idx, mode)
			refEB, refCP := refVertexBound(f, idx, mode)
			if math.Float64bits(eb) != math.Float64bits(refEB) || cp != refCP {
				t.Fatalf("%s %v vertex %d: VertexBound = (%v, %v), reference (%v, %v)",
					name, mode, idx, eb, cp, refEB, refCP)
			}
			sos, refSoS := VertexBoundSoS(f, idx, mode), refVertexBoundSoS(f, idx, mode)
			if math.Float64bits(sos) != math.Float64bits(refSoS) {
				t.Fatalf("%s %v vertex %d: VertexBoundSoS = %v, reference %v", name, mode, idx, sos, refSoS)
			}
		}
	}
}

func randomField(rng *rand.Rand, nx, ny, nz int) *field.Field {
	var f *field.Field
	if nz == 1 {
		f = field.New2D(nx, ny)
	} else {
		f = field.New3D(nx, ny, nz)
	}
	for _, comp := range f.Components() {
		for i := range comp {
			comp[i] = rng.Float32()*2 - 1
		}
	}
	return f
}

// specials are the float32 values whose float64 arithmetic is exceptional:
// signed zeros, the smallest subnormals, the largest finite values, NaN
// and the infinities.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
}

func TestVertexBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	t.Run("random", func(t *testing.T) {
		for _, d := range [][3]int{{24, 24, 1}, {13, 7, 1}, {9, 9, 9}, {7, 5, 4}} {
			for seed := 0; seed < 3; seed++ {
				checkAgainstReference(t, fmt.Sprintf("%v seed %d", d, seed), randomField(rng, d[0], d[1], d[2]))
			}
		}
	})
	t.Run("datagen", func(t *testing.T) {
		checkAgainstReference(t, "ocean", oceanWindow())
		checkAgainstReference(t, "hurricane", hurricaneWindow())
		checkAgainstReference(t, "nek", nekWindow())
	})
	t.Run("specials", func(t *testing.T) {
		// One copy per special value with a quarter of all components set
		// to it, then copies mixing every special value.
		for _, dims := range [][3]int{{9, 7, 1}, {6, 5, 4}} {
			base := randomField(rng, dims[0], dims[1], dims[2])
			for si := -1; si < len(specials); si++ {
				f := base.Clone()
				for _, comp := range f.Components() {
					for i := range comp {
						switch {
						case si >= 0 && rng.Intn(4) == 0:
							comp[i] = specials[si]
						case si < 0 && rng.Intn(3) == 0:
							comp[i] = specials[rng.Intn(len(specials))]
						}
					}
				}
				checkAgainstReference(t, fmt.Sprintf("%v special %d", dims, si), f)
			}
		}
	})
	t.Run("tiny", func(t *testing.T) {
		// Every vertex of these grids is a boundary vertex.
		for _, d := range [][3]int{{2, 2, 1}, {2, 5, 1}, {5, 2, 1}, {2, 2, 2}, {2, 3, 2}} {
			for seed := 0; seed < 20; seed++ {
				checkAgainstReference(t, fmt.Sprintf("%v seed %d", d, seed), randomField(rng, d[0], d[1], d[2]))
			}
		}
	})
}

// FuzzVertexBound holds VertexBound and VertexBoundSoS to the reference on
// small fields built from arbitrary bytes: the first byte picks the
// dimension and grid size, the rest are float32 components (bit patterns
// included, so NaN, infinities, signed zeros and subnormals all occur).
func FuzzVertexBound(f *testing.F) {
	f.Add([]byte{0x00, 0, 0, 128, 63, 0, 0, 0, 192})
	f.Add([]byte{0x01, 0, 0, 128, 127, 0, 0, 128, 255, 1, 0, 0, 0, 0, 0, 0, 128})
	f.Add([]byte{0x5a, 0xcd, 0xcc, 0x4c, 0x3e, 0x9a, 0x99, 0x99, 0xbf, 0, 0, 0xc0, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shape := data[0]
		nx, ny := 2+int(shape>>1&3), 2+int(shape>>3&3)
		var fl *field.Field
		if shape&1 == 0 {
			fl = field.New2D(nx, ny)
		} else {
			fl = field.New3D(nx, ny, 2+int(shape>>5&1))
		}
		payload := data[1:]
		pos := 0
		for _, comp := range fl.Components() {
			for i := range comp {
				if pos+4 <= len(payload) {
					comp[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[pos:]))
					pos += 4
				} else if len(payload) > 0 {
					comp[i] = float32(payload[pos%len(payload)]) - 128
					pos++
				}
			}
		}
		checkAgainstReference(t, "fuzz", fl)
	})
}
