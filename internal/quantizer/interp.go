package quantizer

// Interpolation prediction, the SZ3-style alternative to Lorenzo: values on
// a coarse lattice predict midpoints level by level, with 4-point cubic
// interpolation in the interior and linear/copy fallbacks at boundaries.
// cpsz uses it for its authentic "vanilla SZ3" baseline and for the
// predictor ablation.

// CubicMid predicts the midpoint between b and c given the equally spaced
// samples a, b, c, d (classic -1/16, 9/16, 9/16, -1/16 stencil).
func CubicMid(a, b, c, d float64) float64 {
	return (-a + float64(9*b) + float64(9*c) - d) / 16
}

// LinearMid predicts the midpoint between two samples.
func LinearMid(b, c float64) float64 { return (b + c) / 2 }

// InterpPredict1D predicts the value at index pos (an odd multiple of
// stride) along one axis of a row-major array, from neighbors at ±stride
// and ±3·stride when available. vals holds the working (already
// reconstructed) data; idxOf maps an axis coordinate to a flat index; n is
// the axis length.
func InterpPredict1D(vals []float32, idxOf func(coord int) int, n, pos, stride int) float64 {
	lo1 := pos - stride
	hi1 := pos + stride
	switch {
	case lo1 >= 0 && hi1 < n:
		b := float64(vals[idxOf(lo1)])
		c := float64(vals[idxOf(hi1)])
		lo3 := pos - 3*stride
		hi3 := pos + 3*stride
		if lo3 >= 0 && hi3 < n {
			return CubicMid(float64(vals[idxOf(lo3)]), b, c, float64(vals[idxOf(hi3)]))
		}
		return LinearMid(b, c)
	case lo1 >= 0:
		return float64(vals[idxOf(lo1)])
	case hi1 < n:
		return float64(vals[idxOf(hi1)])
	default:
		return 0
	}
}
