package ebound

import (
	"math/rand"
	"testing"

	"tspsz/internal/datagen"
	"tspsz/internal/field"
)

// crop copies the nx×ny×nz window of f whose lowest corner is at (i0, j0,
// k0).
func crop(f *field.Field, i0, j0, k0, nx, ny, nz int) *field.Field {
	var w *field.Field
	if f.Dim() == 2 {
		w = field.New2D(nx, ny)
	} else {
		w = field.New3D(nx, ny, nz)
	}
	src, dst := f.Components(), w.Components()
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				from := f.Grid.VertexIndex(i0+i, j0+j, k0+k)
				to := w.Grid.VertexIndex(i, j, k)
				for c := range src {
					dst[c][to] = src[c][from]
				}
			}
		}
	}
	return w
}

// Windows of the datagen fields at the sizes the repository benchmark
// compresses.
func oceanWindow() *field.Field     { return crop(datagen.Ocean(300, 200), 30, 20, 0, 240, 160, 1) }
func hurricaneWindow() *field.Field { return crop(datagen.Hurricane(50, 50, 10), 10, 10, 1, 30, 30, 8) }
func nekWindow() *field.Field       { return crop(datagen.Nek5000(18), 2, 2, 2, 14, 14, 14) }

// BenchmarkVertexBound times the bound of every vertex of the windows the
// repository benchmark compresses, one vertex per op in index order. Unlike
// the random fields below, where about a third of the vertices touch a
// critical-point cell and stop at the first one, nearly every vertex of
// these windows derives a bound over its whole star.
func BenchmarkVertexBound(b *testing.B) {
	for _, w := range []struct {
		name string
		f    *field.Field
	}{
		{"ocean240x160", oceanWindow()},
		{"hurricane30x30x8", hurricaneWindow()},
	} {
		b.Run(w.name, func(b *testing.B) {
			n := w.f.NumVertices()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				VertexBound(w.f, i%n, Absolute)
			}
		})
	}
}

func BenchmarkVertexBound2DAbs(b *testing.B) {
	f := randomField(rand.New(rand.NewSource(1)), 64, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VertexBound(f, i%f.NumVertices(), Absolute)
	}
}

func BenchmarkVertexBound2DRel(b *testing.B) {
	f := randomField(rand.New(rand.NewSource(1)), 64, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VertexBound(f, i%f.NumVertices(), Relative)
	}
}

func BenchmarkVertexBound3DAbs(b *testing.B) {
	f := randomField(rand.New(rand.NewSource(2)), 24, 24, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VertexBound(f, i%f.NumVertices(), Absolute)
	}
}

func BenchmarkVertexBoundSoS3D(b *testing.B) {
	f := randomField(rand.New(rand.NewSource(2)), 24, 24, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VertexBoundSoS(f, i%f.NumVertices(), Absolute)
	}
}
