package render

import (
	"image"
	"image/color"
	"math"
	"math/rand"

	"tspsz/internal/field"
)

// LICOptions configures line integral convolution.
type LICOptions struct {
	// Zoom is pixels per grid unit (>= 1).
	Zoom int
	// Length is the half-length of the convolution streamline in pixels
	// (default 12).
	Length int
	// Seed drives the white-noise texture; fixed default for
	// reproducibility.
	Seed int64
	// Contrast stretches the output around 0.5 (default 2.2).
	Contrast float64
}

func (o *LICOptions) defaults() {
	if o.Zoom < 1 {
		o.Zoom = 2
	}
	if o.Length <= 0 {
		o.Length = 12
	}
	if o.Contrast == 0 { //lint:allow floatcmp zero is the documented "unset option" sentinel, never a computed value
		o.Contrast = 2.2
	}
}

// LIC renders a line integral convolution of a 2D field: white noise
// smeared along streamlines, the standard dense flow visualization used as
// context in the paper's Figs. 5 and 7. The result is a grayscale RGBA
// image of size (nx·zoom)×(ny·zoom).
func LIC(f *field.Field, opts LICOptions) *image.RGBA {
	opts.defaults()
	nx, ny, _ := f.Grid.Dims()
	w, h := nx*opts.Zoom, ny*opts.Zoom
	noise := make([]float64, w*h)
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	for i := range noise {
		noise[i] = rng.Float64()
	}
	c := NewCanvas(nx, ny, opts.Zoom)
	out := c.Img
	step := 0.5 / float64(opts.Zoom) // half-pixel steps in grid units

	sampleNoise := func(x, y float64) (float64, bool) {
		px := int(x * float64(opts.Zoom))
		py := int((float64(ny-1) - y) * float64(opts.Zoom))
		if px < 0 || py < 0 || px >= w || py >= h {
			return 0, false
		}
		return noise[py*w+px], true
	}

	// One sampler serves every march: they run one after another and
	// never write f.
	smp := field.NewSampler(f)
	for py := 0; py < h; py++ {
		for px := 0; px < w; px++ {
			x, y := c.GridPos(px, py)
			sum, n := 0.0, 0
			if v, ok := sampleNoise(x, y); ok {
				sum += v
				n++
			}
			// March both directions along the (normalized) flow.
			for _, dir := range []float64{1, -1} {
				cx, cy := x, y
				for s := 0; s < opts.Length; s++ {
					vx, vy, _, _, ok := smp.Sample(cx, cy, 0)
					if !ok {
						break
					}
					mag := math.Hypot(vx, vy)
					if mag < 1e-12 {
						break
					}
					cx += dir * step * vx / mag
					cy += dir * step * vy / mag
					v, ok := sampleNoise(cx, cy)
					if !ok {
						break
					}
					sum += v
					n++
				}
			}
			t := 0.5
			if n > 0 {
				t = sum / float64(n)
			}
			// Contrast stretch around the mean.
			t = 0.5 + (t-0.5)*opts.Contrast
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			g := uint8(40 + 190*t)
			out.SetRGBA(px, py, color.RGBA{g, g, g, 255})
		}
	}
	return out
}
