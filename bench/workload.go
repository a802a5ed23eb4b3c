package main

// Workloads and their inputs. Each workload crops windows out of a
// deterministic datagen field at offsets drawn from the seed; the
// compressor only ever sees the cropped windows. A run cycles through
// several windows, one per cell of a lattice over the offset range, at a
// seeded position within its cell. This stratified draw gives every seed its
// own inputs while keeping the mix of regions, and so the work measured,
// alike from seed to seed: one unlucky window cannot move a metric alone.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"tspsz"
	"tspsz/internal/datagen"
	"tspsz/internal/experiments"
)

// workers is the worker count of every timed op: the 2 vCPUs of the host
// the bounds were measured on.
const workers = 2

type workload struct {
	name    string
	why     string
	dataset string // datagen name; settings come from experiments.Standard
	variant tspsz.Variant
	stream  bool // compress through tspsz.CompressStream from an in-memory .tspf
	// crop is the window extent (nz = 1 in 2D); quick is the -quick extent.
	crop, quick [3]int
	// lattice is the number of offset cells per axis; a run cycles through
	// one window per cell.
	lattice [3]int
}

// The workload set. Each stresses a different layer and leaves others idle,
// so a change to one layer has a workload that exercises it and one that
// bypasses it (bench/README.md tabulates the measured shares).
var workloads = []workload{
	{
		name: "ocean2d-i", dataset: "ocean", variant: tspsz.TspSZi,
		crop: [3]int{240, 160, 1}, quick: [3]int{48, 32, 1}, lattice: [3]int{4, 3, 1},
		why: "Ocean 2D 240x160 windows, TspSZ-i: the serial Frechet check and tracing dominate, correction is small; 3D bounds and streaming idle",
	},
	{
		name: "hurricane3d-i", dataset: "hurricane", variant: tspsz.TspSZi,
		crop: [3]int{30, 30, 8}, quick: [3]int{12, 12, 6}, lattice: [3]int{4, 3, 1},
		why: "Hurricane 3D 30x30x8 windows, TspSZ-i: correction, patch and patch-apply do real work on 3D bounds; worker-count nondeterminism shows here",
	},
	{
		name: "nek3d-1", dataset: "nek5000", variant: tspsz.TspSZ1,
		crop: [3]int{14, 14, 14}, quick: [3]int{6, 6, 6}, lattice: [3]int{3, 2, 1},
		why: "Nek5000 3D 14^3 windows, TspSZ-I: tracing dominates and almost every vertex is lossless; correction and Frechet idle, decode is raw copy",
	},
	{
		name: "stream3d-1", dataset: "hurricane", variant: tspsz.TspSZ1, stream: true,
		crop: [3]int{32, 32, 8}, quick: [3]int{12, 12, 6}, lattice: [3]int{4, 3, 1},
		why: "Hurricane 3D 32x32x8 windows via CompressStream from a .tspf: the two-pass layer sweep pays bound derivation twice; no tracing or correction",
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// fullDims are the Table III grids datagen.ByName generates at scale 1.
var fullDims = map[string][3]int{
	"ocean":     {3600, 2400, 1},
	"hurricane": {500, 500, 100},
	"nek5000":   {512, 512, 512},
}

// window is one cropped input, with the oracle's cached reference results.
type window struct {
	off  [3]int
	f    *tspsz.Field
	tspf []byte // the window serialized as a .tspf, stream workloads only
	ref  *reference
}

// inputs are the generated field's extent and the seeded windows cut from it.
type inputs struct {
	field   [3]int
	windows []*window
}

// settings are the per-dataset compressor settings of experiments.Standard
// under absolute error control.
func (w *workload) settings() (tspsz.Options, error) {
	cfg, err := experiments.Config(w.dataset, 1)
	if err != nil {
		return tspsz.Options{}, err
	}
	return tspsz.Options{
		Variant: w.variant, Mode: tspsz.ModeAbsolute, ErrBound: cfg.EpsAbs,
		Params: cfg.Params, Tau: cfg.Tau, Workers: workers,
	}, nil
}

// makeInputs generates the dataset at the smallest scale whose grid is at
// least 1.25x the crop on every axis (z at least crop+2 in 3D), then cuts
// one window per lattice cell at an offset drawn from seed.
func (w *workload) makeInputs(seed int64, crop [3]int) (*inputs, error) {
	full := fullDims[w.dataset]
	scale := 0.0
	for a := 0; a < 3; a++ {
		if full[a] == 1 {
			continue
		}
		need := math.Ceil(1.25 * float64(crop[a]))
		if a == 2 {
			need = math.Max(need, float64(crop[a]+2))
		}
		scale = math.Max(scale, need/float64(full[a]))
	}
	f, err := datagen.ByName(w.dataset, scale)
	if err != nil {
		return nil, err
	}
	nx, ny, nz := f.Grid.Dims()
	dims := [3]int{nx, ny, nz}
	for a := 0; a < 3; a++ {
		if dims[a] < crop[a] {
			return nil, fmt.Errorf("%s: generated %v is smaller than crop %v", w.name, dims, crop)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	in := &inputs{field: dims}
	n := w.lattice[0] * w.lattice[1] * w.lattice[2]
	for k := 0; k < n; k++ {
		var off [3]int
		cell := k
		for a := 0; a < 3; a++ {
			span := float64(dims[a]-crop[a]+1) / float64(w.lattice[a])
			off[a] = int((float64(cell%w.lattice[a]) + rng.Float64()) * span)
			cell /= w.lattice[a]
		}
		win := &window{off: off, f: cropField(f, off, crop)}
		if w.stream {
			var buf bytes.Buffer
			if _, err := win.f.WriteTo(&buf); err != nil {
				return nil, err
			}
			win.tspf = buf.Bytes()
		}
		in.windows = append(in.windows, win)
	}
	return in, nil
}

func cropField(f *tspsz.Field, off, crop [3]int) *tspsz.Field {
	nx, ny, _ := f.Grid.Dims()
	var g *tspsz.Field
	if f.Dim() == 2 {
		g = tspsz.NewField2D(crop[0], crop[1])
	} else {
		g = tspsz.NewField3D(crop[0], crop[1], crop[2])
	}
	src, dst := f.Components(), g.Components()
	for c := range src {
		i := 0
		for z := off[2]; z < off[2]+crop[2]; z++ {
			for y := off[1]; y < off[1]+crop[1]; y++ {
				row := off[0] + nx*(y+ny*z)
				i += copy(dst[c][i:i+crop[0]], src[c][row:row+crop[0]])
			}
		}
	}
	return g
}

// compressed is the outcome of one compress op: the archive and, for the
// in-memory path, the reconstruction Compress promises the decoder yields.
type compressed struct {
	archive []byte
	res     *tspsz.Result // nil on the streaming path
}

// compress runs one op on win exactly as a user would. wrap, when
// non-nil, wraps the streaming path's layer fetcher (the traced run's
// field.fetch timer).
func (w *workload) compress(win *window, opts tspsz.Options, wrap func(tspsz.LayerFetcher) tspsz.LayerFetcher) (compressed, error) {
	if !w.stream {
		res, err := tspsz.Compress(win.f, opts)
		if err != nil {
			return compressed{}, err
		}
		return compressed{archive: res.Bytes, res: res}, nil
	}
	var fetch tspsz.LayerFetcher
	fl, err := tspsz.NewFileLayers(bytes.NewReader(win.tspf))
	if err != nil {
		return compressed{}, err
	}
	fetch = fl
	if wrap != nil {
		fetch = wrap(fetch)
	}
	nx, ny, nz := win.f.Grid.Dims()
	var out bytes.Buffer
	if _, err := tspsz.CompressStream(context.Background(), &out, nx, ny, nz, fetch, nil, opts); err != nil {
		return compressed{}, err
	}
	return compressed{archive: out.Bytes()}, nil
}

// refNominalMs is the reference kernel's 10th-percentile time on the host
// the bounds were measured on (a 2-vCPU KVM guest), the speed every timing
// metric is scaled to.
const refNominalMs = 10.0

// refBuf is the reference kernel's working set: 512 KiB, cache-resident on
// common hosts, so the kernel measures core speed rather than memory.
var (
	refBuf  = make([]float64, 1<<16)
	refSink float64
)

// refKernel times a fixed single-threaded float loop that shares no code
// with the compressor. Its time moves only when the host does, so it tells
// a slower run on a busy host from a slower program.
func refKernel() float64 {
	start := time.Now()
	for i := range refBuf {
		refBuf[i] = float64(i)
	}
	s := 0.0
	for r := 0; r < 200; r++ {
		for i, v := range refBuf {
			s += v * 1.0000001
			refBuf[i] = s * 1e-9
		}
	}
	refSink = s
	return ms(time.Since(start))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
