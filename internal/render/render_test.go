package render

import (
	"crypto/sha256"
	"fmt"
	"image"
	"image/color"
	"math"
	"testing"

	"tspsz/internal/field"
	"tspsz/internal/integrate"
)

func gyre(nx, ny int) *field.Field {
	f := field.New2D(nx, ny)
	lx := float64(nx-1) / 2
	ly := float64(ny-1) / 2
	for idx := 0; idx < f.NumVertices(); idx++ {
		p := f.Grid.VertexPosition(idx)
		f.U[idx] = float32(-math.Sin(math.Pi*p[0]/lx)*math.Cos(math.Pi*p[1]/ly) - 0.1)
		f.V[idx] = float32(math.Cos(math.Pi*p[0]/lx) * math.Sin(math.Pi*p[1]/ly))
	}
	return f
}

func TestCanvasSetRespectsBounds(t *testing.T) {
	c := NewCanvas(10, 8, 3)
	if c.Img.Bounds().Dx() != 30 || c.Img.Bounds().Dy() != 24 {
		t.Fatalf("canvas size %v", c.Img.Bounds())
	}
	// Out-of-domain writes are silently ignored.
	c.Set(-5, 3, color.RGBA{255, 0, 0, 255})
	c.Set(100, 3, color.RGBA{255, 0, 0, 255})
	c.Set(3, -2, color.RGBA{255, 0, 0, 255})
	// In-domain write lands somewhere.
	c.Set(3, 3, color.RGBA{255, 0, 0, 255})
	found := false
	b := c.Img.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			if r, _, _, _ := c.Img.At(x, y).RGBA(); r > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("Set(3,3) painted nothing")
	}
}

func TestGridPosRoundTrip(t *testing.T) {
	c := NewCanvas(16, 12, 4)
	for py := 0; py < 48; py += 7 {
		for px := 0; px < 64; px += 7 {
			x, y := c.GridPos(px, py)
			// Setting at (x,y) must hit exactly pixel (px,py).
			before := c.Img.RGBAAt(px, py)
			c.Set(x, y, color.RGBA{1, 2, 3, 255})
			after := c.Img.RGBAAt(px, py)
			if after == before {
				t.Fatalf("GridPos(%d,%d) -> (%v,%v) did not map back", px, py, x, y)
			}
		}
	}
}

func TestColormapsEndpoints(t *testing.T) {
	for name, cm := range map[string]Colormap{"viridis": Viridis, "gray": Grayscale, "hot": Hot} {
		lo := cm(0)
		hi := cm(1)
		if lo == hi {
			t.Errorf("%s: endpoints identical", name)
		}
		if a := cm(0.5); a.A != 255 {
			t.Errorf("%s: not opaque", name)
		}
		// Clamping outside [0,1].
		if cm(-1) != cm(0) || cm(2) != cm(1) {
			t.Errorf("%s: no clamping", name)
		}
	}
}

func TestLICProducesStructure(t *testing.T) {
	f := gyre(24, 24)
	img := LIC(f, LICOptions{Zoom: 2, Length: 8})
	if img.Bounds().Dx() != 48 || img.Bounds().Dy() != 48 {
		t.Fatalf("LIC size %v", img.Bounds())
	}
	// LIC output must not be constant, and smearing must reduce variance
	// versus raw noise (neighbors along flow correlate).
	var sum, sumSq float64
	n := 0
	for y := 0; y < 48; y++ {
		for x := 0; x < 48; x++ {
			v := float64(img.RGBAAt(x, y).R)
			sum += v
			sumSq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance == 0 {
		t.Fatal("LIC output constant")
	}
	if variance > 128*128 {
		t.Fatalf("LIC variance %v implausibly high", variance)
	}
}

func TestLICDeterministic(t *testing.T) {
	f := gyre(16, 16)
	a := LIC(f, LICOptions{Zoom: 1})
	b := LIC(f, LICOptions{Zoom: 1})
	if len(a.Pix) != len(b.Pix) {
		t.Fatal("size mismatch")
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("LIC not deterministic")
		}
	}
}

func TestSkeletonFigure(t *testing.T) {
	f := gyre(24, 24)
	par := integrate.Params{EpsP: 1e-2, MaxSteps: 100, H: 0.05}
	img, err := Skeleton(f, nil, SkeletonOptions{Zoom: 2, Params: par})
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 48 {
		t.Fatalf("unexpected size %v", img.Bounds())
	}
	// With a distorted decompressed field, red/green highlights appear.
	dec := f.Clone()
	for i := range dec.U {
		dec.U[i] += 0.8
	}
	img2, err := Skeleton(f, dec, SkeletonOptions{Zoom: 2, Params: par, Tau: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	foundHighlight := false
	b := img2.Bounds()
	for y := b.Min.Y; y < b.Max.Y && !foundHighlight; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			px := img2.RGBAAt(x, y)
			if px == ColWrong || px == ColTruth {
				foundHighlight = true
				break
			}
		}
	}
	if !foundHighlight {
		t.Error("no wrong/truth highlighting despite heavy distortion")
	}
}

// LIC and Skeleton's magnitude heatmap sample through one field.Sampler
// per image. The digests were recorded with a fresh sampler per point
// (Field.Sample), so the images are pixel for pixel the same.
func TestImagesPinned(t *testing.T) {
	f := gyre(24, 24)
	par := integrate.Params{EpsP: 1e-2, MaxSteps: 100, H: 0.05}
	heatmap, err := Skeleton(f, nil, SkeletonOptions{Zoom: 2, Params: par})
	if err != nil {
		t.Fatal(err)
	}
	withLIC, err := Skeleton(f, nil, SkeletonOptions{Zoom: 2, Params: par, LICBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		img  *image.RGBA
		want string
	}{
		{"lic", LIC(f, LICOptions{Zoom: 2, Length: 8}), "a2e2f963351b0c88a444d8f9976b92392e0ded5199ddb8bf5628f0567faf0b55"},
		{"skeleton-heatmap", heatmap, "7c604067a3f6433efac719c6213c194958a2a99ac3138c76ce6da2a635d9ce7e"},
		{"skeleton-lic", withLIC, "d37a87734c4e378b47c50776697164fa1418365483f19a2e92529bb7e1cc7f03"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.img.Pix)); got != tc.want {
			t.Errorf("%s: image SHA-256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSkeletonRejects3D(t *testing.T) {
	f3 := field.New3D(4, 4, 4)
	if _, err := Skeleton(f3, nil, SkeletonOptions{}); err == nil {
		t.Error("3D field accepted")
	}
}

func TestErrorMap(t *testing.T) {
	f := gyre(16, 16)
	dec := f.Clone()
	dec.U[50] += 1
	img, err := ErrorMap(f, dec, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The error pixel region must differ from the background.
	bgCol := img.RGBAAt(0, 0)
	diff := false
	b := img.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			if img.RGBAAt(x, y) != bgCol {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("error map is uniform despite an injected error")
	}
	if _, err := ErrorMap(f, field.New2D(4, 4), 1); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestLosslessMap(t *testing.T) {
	f := gyre(10, 10)
	img, err := LosslessMap(f, func(idx int) bool { return idx%7 == 0 }, 2)
	if err != nil {
		t.Fatal(err)
	}
	greens, pinks := 0, 0
	b := img.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			switch img.RGBAAt(x, y) {
			case ColLossless:
				greens++
			case ColLossy:
				pinks++
			}
		}
	}
	if greens == 0 || pinks == 0 {
		t.Errorf("expected both colors, got %d green %d pink", greens, pinks)
	}
}

func TestSliceXY(t *testing.T) {
	f := field.New3D(5, 4, 3)
	for idx := 0; idx < f.NumVertices(); idx++ {
		f.U[idx] = float32(idx)
		f.V[idx] = float32(-idx)
	}
	s, err := SliceXY(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		for i := 0; i < 5; i++ {
			src := f.Grid.VertexIndex(i, j, 1)
			dst := s.Grid.VertexIndex(i, j, 0)
			if s.U[dst] != f.U[src] || s.V[dst] != f.V[src] {
				t.Fatalf("slice mismatch at (%d,%d)", i, j)
			}
		}
	}
	if _, err := SliceXY(f, 9); err == nil {
		t.Error("out-of-range slice accepted")
	}
	if _, err := SliceXY(field.New2D(4, 4), 0); err == nil {
		t.Error("2D field accepted")
	}
}
