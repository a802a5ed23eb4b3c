package render

import (
	"fmt"
	"image"
	"image/color"
	"math"

	"tspsz/internal/field"
	"tspsz/internal/integrate"
	"tspsz/internal/skeleton"
)

// Palette used across the paper-style figures.
var (
	ColSeparatrix = color.RGBA{150, 220, 255, 255} // light blue (Figs. 1/5/7)
	ColWrong      = color.RGBA{230, 40, 40, 255}   // red: incorrect separatrix
	ColTruth      = color.RGBA{40, 200, 80, 255}   // green: its ground truth
	ColSaddle     = color.RGBA{255, 220, 0, 255}
	ColSource     = color.RGBA{255, 80, 200, 255}
	ColSink       = color.RGBA{90, 60, 220, 255}
	ColLossless   = color.RGBA{40, 170, 60, 255}   // green (Fig. 6)
	ColLossy      = color.RGBA{245, 180, 200, 255} // pink (Fig. 6)
)

// SkeletonOptions configures Skeleton figure rendering.
type SkeletonOptions struct {
	Zoom int
	// LICBackground draws an LIC context texture instead of a magnitude
	// heatmap, as in Figs. 5 and 7.
	LICBackground bool
	// Tau is the Fréchet tolerance for wrong-separatrix highlighting when
	// a decompressed field is supplied.
	Tau float64
	// Params are the tracing parameters.
	Params integrate.Params
}

// Skeleton renders the topological skeleton of f. When dec is non-nil, the
// decompressed field's separatrices are drawn instead, with incorrect ones
// in red over their green ground truth — the exact presentation of Figs. 1
// and 5.
func Skeleton(f, dec *field.Field, opts SkeletonOptions) (*image.RGBA, error) {
	if f.Dim() != 2 {
		return nil, fmt.Errorf("render: Skeleton needs a 2D field (use SliceXY for 3D)")
	}
	if opts.Zoom < 1 {
		opts.Zoom = 2
	}
	if opts.Tau == 0 { //lint:allow floatcmp zero is the documented "unset option" sentinel, never a computed value
		opts.Tau = math.Sqrt2
	}
	nx, ny, _ := f.Grid.Dims()
	c := NewCanvas(nx, ny, opts.Zoom)
	if opts.LICBackground {
		c.Img = LIC(f, LICOptions{Zoom: opts.Zoom})
	} else {
		maxM := 0.0
		for i := 0; i < f.NumVertices(); i++ {
			if m := math.Hypot(float64(f.U[i]), float64(f.V[i])); m > maxM {
				maxM = m
			}
		}
		smp := field.NewSampler(f) // Heatmap samples pixel by pixel, serially
		c.Heatmap(func(x, y float64) float64 {
			u, v, _, _, ok := smp.Sample(x, y, 0)
			if !ok {
				return 0
			}
			return math.Hypot(u, v)
		}, 0, maxM, Viridis)
	}

	orig := skeleton.Extract(f, opts.Params)
	if dec == nil {
		for _, s := range orig.Seps {
			c.Polyline(s.Points, ColSeparatrix)
		}
	} else {
		got := skeleton.ExtractWith(dec, orig.CPs, opts.Params)
		for i := range orig.Seps {
			if i < len(got.Seps) && skeleton.CheckTraj(&orig.Seps[i], &got.Seps[i], opts.Tau) {
				c.Polyline(got.Seps[i].Points, ColSeparatrix)
				continue
			}
			if i < len(got.Seps) {
				c.Polyline(got.Seps[i].Points, ColWrong)
			}
			c.Polyline(orig.Seps[i].Points, ColTruth)
		}
	}
	for _, cp := range orig.CPs {
		col := ColSaddle
		switch cp.Type.String() {
		case "source":
			col = ColSource
		case "sink":
			col = ColSink
		}
		c.Dot(cp.Pos[0], cp.Pos[1], opts.Zoom, col)
	}
	return c.Img, nil
}

// ErrorMap renders the per-vertex error magnitude between orig and dec
// with the Hot colormap (Fig. 3).
func ErrorMap(orig, dec *field.Field, zoom int) (*image.RGBA, error) {
	if orig.Dim() != 2 {
		return nil, fmt.Errorf("render: ErrorMap needs 2D fields")
	}
	if orig.NumVertices() != dec.NumVertices() {
		return nil, fmt.Errorf("render: field shapes differ")
	}
	if zoom < 1 {
		zoom = 2
	}
	nx, ny, _ := orig.Grid.Dims()
	c := NewCanvas(nx, ny, zoom)
	errAt := func(idx int) float64 {
		du := math.Abs(float64(orig.U[idx]) - float64(dec.U[idx]))
		dv := math.Abs(float64(orig.V[idx]) - float64(dec.V[idx]))
		return math.Max(du, dv)
	}
	maxE := 0.0
	for i := 0; i < orig.NumVertices(); i++ {
		if e := errAt(i); e > maxE {
			maxE = e
		}
	}
	c.Heatmap(func(x, y float64) float64 {
		i := int(x + 0.5)
		j := int(y + 0.5)
		if i < 0 || j < 0 || i >= nx || j >= ny {
			return 0
		}
		return errAt(orig.Grid.VertexIndex(i, j, 0))
	}, 0, maxE, Hot)
	return c.Img, nil
}

// LosslessMap renders which vertices a compressor stored verbatim (green)
// versus lossily (pink) — Fig. 6.
func LosslessMap(f *field.Field, isLossless func(idx int) bool, zoom int) (*image.RGBA, error) {
	if f.Dim() != 2 {
		return nil, fmt.Errorf("render: LosslessMap needs a 2D field")
	}
	if zoom < 1 {
		zoom = 2
	}
	nx, ny, _ := f.Grid.Dims()
	c := NewCanvas(nx, ny, zoom)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			col := ColLossy
			if isLossless(f.Grid.VertexIndex(i, j, 0)) {
				col = ColLossless
			}
			for dy := 0; dy < zoom; dy++ {
				for dx := 0; dx < zoom; dx++ {
					c.Img.SetRGBA(i*zoom+dx, (ny-1-j)*zoom+dy, col)
				}
			}
		}
	}
	return c.Img, nil
}

// BasinMap colors every vertex by its attraction-basin label (palette
// cycled deterministically); Unassigned (-1) renders dark gray. It
// visualizes the segment package's domain decomposition.
func BasinMap(f *field.Field, labels []int, zoom int) (*image.RGBA, error) {
	if f.Dim() != 2 {
		return nil, fmt.Errorf("render: BasinMap needs a 2D field")
	}
	if len(labels) != f.NumVertices() {
		return nil, fmt.Errorf("render: %d labels for %d vertices", len(labels), f.NumVertices())
	}
	if zoom < 1 {
		zoom = 2
	}
	palette := []color.RGBA{
		{230, 120, 60, 255}, {70, 160, 220, 255}, {120, 200, 90, 255},
		{200, 90, 180, 255}, {240, 200, 70, 255}, {90, 200, 200, 255},
		{160, 110, 220, 255}, {220, 150, 150, 255},
	}
	dark := color.RGBA{50, 50, 55, 255}
	nx, ny, _ := f.Grid.Dims()
	c := NewCanvas(nx, ny, zoom)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			l := labels[f.Grid.VertexIndex(i, j, 0)]
			col := dark
			if l >= 0 {
				col = palette[l%len(palette)]
			}
			for dy := 0; dy < zoom; dy++ {
				for dx := 0; dx < zoom; dx++ {
					c.Img.SetRGBA(i*zoom+dx, (ny-1-j)*zoom+dy, col)
				}
			}
		}
	}
	return c.Img, nil
}
