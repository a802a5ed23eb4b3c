// Package quantizer provides the prediction and quantization stages of the
// SZ-style compression pipeline used by cpSZ and TspSZ: Lorenzo predictors
// with boundary degradation (3D→2D→1D, matching the multi-stage parallel
// scheme of §VII) and error-bounded linear-scale quantization with an
// unpredictable-value escape hatch.
package quantizer

import "math"

// DefaultRadius is the quantization radius: codes outside ±DefaultRadius
// mark the value unpredictable and force verbatim storage.
const DefaultRadius = 1 << 15

// Predict returns the Lorenzo prediction for the vertex at lattice
// coordinates (i, j, k) over the row-major values vals with row stride nx
// and plane stride nxny. Neighbors with any coordinate below lo are
// unavailable (outside the current block/plane region), degrading the
// predictor: 3D Lorenzo → 2D Lorenzo → 1D Lorenzo → 0, exactly the
// degradation strategy the paper uses at block surfaces and edges.
//
// Only already-reconstructed values may live at coordinates >= lo and
// lexicographically before (k, j, i); the caller guarantees this by
// processing regions in row-major order.
func Predict(vals []float32, nx, nxny int, i, j, k int, lo [3]int) float64 {
	ax := i-1 >= lo[0]
	ay := j-1 >= lo[1]
	az := k-1 >= lo[2]
	at := func(di, dj, dk int) float64 {
		return float64(vals[(i-di)+(j-dj)*nx+(k-dk)*nxny])
	}
	switch {
	case ax && ay && az:
		return at(1, 0, 0) + at(0, 1, 0) + at(0, 0, 1) -
			at(1, 1, 0) - at(1, 0, 1) - at(0, 1, 1) + at(1, 1, 1)
	case ax && ay:
		return at(1, 0, 0) + at(0, 1, 0) - at(1, 1, 0)
	case ax && az:
		return at(1, 0, 0) + at(0, 0, 1) - at(1, 0, 1)
	case ay && az:
		return at(0, 1, 0) + at(0, 0, 1) - at(0, 1, 1)
	case ax:
		return at(1, 0, 0)
	case ay:
		return at(0, 1, 0)
	case az:
		return at(0, 0, 1)
	default:
		return 0
	}
}

// Quantize maps the residual x−pred onto the integer grid of spacing 2·eb.
// It returns the quantization code, the reconstructed value (rounded to
// float32, as both encoder and decoder store working data in float32), and
// ok == false when the value is unpredictable: eb is not positive, the code
// overflows ±radius, or float32 rounding would break the bound.
func Quantize(x, pred, eb float64, radius int32) (code int32, recon float64, ok bool) {
	if !(eb > 0) || math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(pred) || math.IsInf(pred, 0) {
		return 0, 0, false
	}
	d := (x - pred) / (2 * eb)
	if math.Abs(d) > float64(radius) {
		return 0, 0, false
	}
	code = int32(math.Floor(d + 0.5))
	r64 := pred + float64(2*eb*float64(code))
	r32 := float64(float32(r64))
	if math.Abs(r32-x) > eb {
		return 0, 0, false
	}
	return code, r32, true
}

// Reconstruct inverts Quantize on the decoder side: it must produce exactly
// the float32 value the encoder stored.
func Reconstruct(pred, eb float64, code int32) float64 {
	return float64(float32(pred + float64(2*eb*float64(code))))
}

// Zigzag maps a signed code onto the non-negative symbol space used by the
// Huffman backend.
func Zigzag(code int32) uint32 { return uint32(code<<1) ^ uint32(code>>31) }

// Unzigzag inverts Zigzag.
func Unzigzag(sym uint32) int32 { return int32(sym>>1) ^ -int32(sym&1) }

// UnpredictableSym is the reserved quantization symbol marking a verbatim
// float32 in the raw stream.
const UnpredictableSym = ^uint32(0)
