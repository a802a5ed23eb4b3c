package main

// The traced run. It measures each layer from the benchmark's own files: an
// obs.Collector on every traced op (its stage spans become children of the
// op span), a dispatch hook on internal/parallel, a timing wrapper around
// the streaming path's layer fetcher, and direct replays of the exported
// calls each layer offers, on the same windows. Spans stay in memory and
// are written once at the end. The end-to-end metrics come from the
// untraced run; this run reports how much tracing costs (trace.overhead_pct)
// so the two can be compared.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"tspsz"
	"tspsz/internal/bitmap"
	"tspsz/internal/cpsz"
	"tspsz/internal/critical"
	"tspsz/internal/ebound"
	"tspsz/internal/parallel"
	"tspsz/internal/skeleton"
)

// span is one timed interval. Parent indexes the enclosing span (-1 for
// none); spans of one op share OpID.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
}

type opInfo struct {
	ID       int    `json:"id"`
	Workload string `json:"workload"`
	Kind     string `json:"kind"`
	Window   int    `json:"window"`
}

// tracer keeps spans in memory. Dispatch completions arrive from worker
// goroutines, hence the mutex.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   []opInfo
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) newOp(workload, kind string, window int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops = append(t.ops, opInfo{ID: len(t.ops), Workload: workload, Kind: kind, Window: window})
	return len(t.ops) - 1
}

func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: t.ns(start), EndNs: t.ns(end), Parent: parent, OpID: op})
	return len(t.spans) - 1
}

// begin opens a span whose index children can name before it ends.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Now()
	return t.add(name, now, now, parent, op)
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndNs = t.ns(now)
	return time.Duration(t.spans[i].EndNs - t.spans[i].StartNs)
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent, op int, fn func()) time.Duration {
	i := t.begin(name, parent, op)
	fn()
	return t.end(i)
}

// observe installs a dispatch hook that feeds col's parallel_* counters and
// records one span per dispatch. The hook is process-global; one traced op
// runs at a time.
func (t *tracer) observe(col *tspsz.Collector, parent, op int) (uninstall func()) {
	parallel.SetHook(func(name string, n, w int) func() {
		done := col.Dispatch(name, n, w)
		start := time.Now()
		return func() {
			if done != nil {
				done()
			}
			t.add("parallel."+name, start, time.Now(), parent, op)
		}
	})
	return func() { parallel.SetHook(nil) }
}

// adopt records a collector's stage spans as children of span parent;
// started is when the collector was created.
func (t *tracer) adopt(snap *tspsz.ObsSnapshot, started time.Time, parent, op int) {
	for _, sp := range snap.Spans {
		s := started.Add(time.Duration(sp.StartNs))
		t.add(stageModule[sp.Stage]+"."+sp.Stage, s, s.Add(time.Duration(sp.DurationNs)), parent, op)
	}
}

func (t *tracer) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Ops   []opInfo `json:"ops"`
		Spans []span   `json:"spans"`
	}{t.ops, t.spans})
}

// stageModule names the package each obs stage runs in.
var stageModule = map[string]string{
	"cp-extract":       "critical",
	"trace":            "integrate",
	"predict-quantize": "cpsz",
	"histogram":        "cpsz",
	"entropy-encode":   "cpsz",
	"entropy-decode":   "cpsz",
	"reconstruct":      "cpsz",
	"correction":       "core",
	"container":        "core",
	"patch-apply":      "core",
	"frame":            "core",
}

// stageMs sums a snapshot's spans of one stage.
func stageMs(s *tspsz.ObsSnapshot, stage string) float64 {
	var ns int64
	for _, sp := range s.Spans {
		if sp.Stage == stage {
			ns += sp.DurationNs
		}
	}
	return float64(ns) / 1e6
}

// coveredNs is the length of the union of a snapshot's spans (stages nest,
// e.g. histogram inside entropy-encode).
func coveredNs(s *tspsz.ObsSnapshot) int64 {
	iv := make([][2]int64, len(s.Spans))
	for i, sp := range s.Spans {
		iv[i] = [2]int64{sp.StartNs, sp.StartNs + sp.DurationNs}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, hi int64
	for _, x := range iv {
		lo := max(x[0], hi)
		if x[1] > lo {
			total += x[1] - lo
		}
		hi = max(hi, x[1])
	}
	return total
}

// fetchTimer wraps the streaming path's layer fetcher. The compressor calls
// Layer from its serial prepare stage only.
type fetchTimer struct {
	inner      tspsz.LayerFetcher
	t          *tracer
	parent, op int
	busy       time.Duration
	layers     int
}

func (f *fetchTimer) Layer(k int) ([][]float32, error) {
	start := time.Now()
	planes, err := f.inner.Layer(k)
	end := time.Now()
	f.busy += end.Sub(start)
	f.layers++
	f.t.add("field.fetch", start, end, f.parent, f.op)
	return planes, err
}

// opTrace is what one traced compress + decompress recorded.
type opTrace struct {
	compressMs, decompressMs, untracedMs, fetchMs float64
	layers                                        int
	comp, decomp                                  *tspsz.ObsSnapshot
}

// tracedOp compresses window k and decodes the archive once, both observed.
func (r *run) tracedOp(t *tracer, k int) (opTrace, bool) {
	var o opTrace
	win := r.in.windows[k]
	op := t.newOp(r.w.name, "traced", k)
	runtime.GC()

	opts := r.opts
	opts.Collector = tspsz.NewCollector()
	started := time.Now()
	root := t.begin("core.compress", -1, op)
	var ft *fetchTimer
	wrap := func(in tspsz.LayerFetcher) tspsz.LayerFetcher {
		ft = &fetchTimer{inner: in, t: t, parent: root, op: op}
		return ft
	}
	uninstall := t.observe(opts.Collector, root, op)
	c, err := r.w.compress(win, opts, wrap)
	uninstall()
	dur := t.end(root)
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("traced compress window %d: %w", k, err))
		return o, false
	}
	o.comp = opts.Collector.Snapshot()
	t.adopt(o.comp, started, root, op)
	o.compressMs = ms(dur)
	o.untracedMs = ms(dur - time.Duration(coveredNs(o.comp)))
	if ft != nil {
		o.fetchMs, o.layers = ms(ft.busy), ft.layers
	}
	a := r.record(k, c)

	runtime.GC()
	col := tspsz.NewCollector()
	started = time.Now()
	root = t.begin("core.decompress", -1, op)
	uninstall = t.observe(col, root, op)
	dec, err := tspsz.DecompressObserved(c.archive, workers, col)
	uninstall()
	dur = t.end(root)
	r.decoded(a, dec, err)
	if err != nil {
		return o, false
	}
	o.decomp = col.Snapshot()
	t.adopt(o.decomp, started, root, op)
	o.decompressMs = ms(dur)
	return o, true
}

// replayed is what the layer replays on one window measured.
type replayed struct {
	extractMs, cps, saddles          float64
	traceMs, seps, steps             float64
	checkMs, pairs, dpCells          float64
	vertexBoundNs, vertices          float64
	cpszCompressMs, cpszDecompressMs float64
}

// vbSink keeps the ebound replay's results alive.
var vbSink float64

// replay times the exported entry point of each layer on window k, as the
// workload's compress op calls them: critical points, separatrix tracing,
// the per-vertex bound, the cpSZ codec and, for TspSZ-i, the serial
// CheckTraj loop over original vs cpSZ-decoded separatrices that compressI
// runs before correction.
func (r *run) replay(t *tracer, k int) (replayed, error) {
	var p replayed
	win := r.in.windows[k]
	op := t.newOp(r.w.name, "replay", k)
	root := t.begin("replay", -1, op)
	defer t.end(root)
	par := r.opts.Params

	var cps []critical.Point
	p.extractMs = ms(t.timed("critical.extract_cps", root, op, func() {
		cps = skeleton.ExtractCPsParallel(win.f, workers)
	}))
	var sk *skeleton.Skeleton
	p.traceMs = ms(t.timed("integrate.trace", root, op, func() {
		sk = skeleton.ExtractWithParallel(win.f, cps, par, workers)
	}))
	p.cps, p.saddles, p.seps = float64(len(cps)), float64(sk.NumSaddles()), float64(len(sk.Seps))
	for _, s := range sk.Seps {
		p.steps += float64(len(s.Points) - 1)
	}

	nv := win.f.NumVertices()
	p.vertexBoundNs = float64(t.timed("ebound.vertex_bound", root, op, func() {
		for i := 0; i < nv; i++ {
			eb, _ := ebound.VertexBound(win.f, i, ebound.Absolute)
			vbSink += eb
		}
	}).Nanoseconds()) / float64(nv)
	p.vertices = float64(nv)

	// TspSZ-I hands cpSZ the lossless set its tracing marked; TspSZ-i and
	// the streaming path compress without one.
	lossless := r.losslessOf(k)
	var cres *cpsz.Result
	var err error
	p.cpszCompressMs = ms(t.timed("cpsz.compress", root, op, func() {
		cres, err = cpsz.Compress(win.f, cpsz.Options{
			Mode: ebound.Absolute, ErrBound: r.opts.ErrBound, Lossless: lossless, Workers: workers,
		})
	}))
	if err != nil {
		return p, fmt.Errorf("replay cpsz.Compress window %d: %w", k, err)
	}
	p.cpszDecompressMs = ms(t.timed("cpsz.decompress", root, op, func() {
		_, err = cpsz.Decompress(cres.Bytes, workers)
	}))
	if err != nil {
		return p, fmt.Errorf("replay cpsz.Decompress window %d: %w", k, err)
	}

	if r.w.variant != tspsz.TspSZi {
		return p, nil
	}
	var decSk *skeleton.Skeleton
	t.timed("integrate.trace_decoded", root, op, func() {
		decSk = skeleton.ExtractWithParallel(cres.Decompressed, cps, par, workers)
	})
	p.checkMs = ms(t.timed("frechet.check", root, op, func() {
		for i := range sk.Seps {
			skeleton.CheckTraj(&sk.Seps[i], &decSk.Seps[i], r.opts.Tau)
		}
	}))
	p.pairs = float64(len(sk.Seps))
	for i := range sk.Seps {
		p.dpCells += float64(len(sk.Seps[i].Points)) * float64(len(decSk.Seps[i].Points))
	}
	return p, nil
}

// losslessOf returns the lossless set a TspSZ-I op on window k produced.
func (r *run) losslessOf(k int) *bitmap.Bitmap {
	if r.w.variant != tspsz.TspSZ1 {
		return nil
	}
	for _, d := range r.order {
		if a := r.archives[d]; a.window == k && a.lossless != nil {
			return a.lossless
		}
	}
	return nil
}

// traced runs the traced phase for one run: an untraced comparison phase
// for half the budget, traced ops for the other half (at least three), one
// op at workers=1, the layer replays on every window, then the oracle.
func (r *run) traced(t *tracer, budget time.Duration) (map[string]value, error) {
	measure([]*run{r}, budget/2)
	untraced := percentile(r.compressMs, 0.10)

	var ops []opTrace
	deadline := time.Now().Add(budget / 2)
	for i := 0; len(ops) < 3 || time.Now().Before(deadline); i++ {
		if o, ok := r.tracedOp(t, i%len(r.in.windows)); ok {
			ops = append(ops, o)
		} else if i > 3*len(r.in.windows) {
			return nil, fmt.Errorf("%s: traced ops keep failing: %v", r.w.name, r.errs)
		}
	}

	// One op at workers=1 on window 0 against the untraced workers=2 ops
	// on the same window; its archive joins the determinism count. Like the
	// end-to-end throughputs, times compare at their 10th percentiles.
	var w2 []float64
	for i, k := range r.compressWin {
		if k == 0 {
			w2 = append(w2, r.compressMs[i])
		}
	}
	opts := r.opts
	opts.Workers = 1
	runtime.GC()
	start := time.Now()
	c, err := r.w.compress(r.in.windows[0], opts, nil)
	w1 := ms(time.Since(start))
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("compress at workers=1: %w", err))
	} else {
		r.record(0, c)
	}

	var reps []replayed
	for k := range r.in.windows {
		p, err := r.replay(t, k)
		if err != nil {
			return nil, err
		}
		reps = append(reps, p)
	}
	r.verify(true)

	out := make(map[string]value)
	set := func(name string, x float64, n int) { out[name] = value{Value: x, Unit: unitOf(name), N: n} }
	// perOp reports the median over the traced ops, perWindow the mean over
	// the replayed windows.
	perOp := func(name string, f func(o opTrace) float64) {
		xs := make([]float64, len(ops))
		for i, o := range ops {
			xs[i] = f(o)
		}
		set(name, median(xs), len(ops))
	}
	perWindow := func(name string, f func(p replayed) float64) {
		xs := make([]float64, len(reps))
		for i, p := range reps {
			xs[i] = f(p)
		}
		set(name, mean(xs), len(reps))
	}
	compStage := func(name, stage string) {
		perOp(name, func(o opTrace) float64 { return stageMs(o.comp, stage) })
	}
	decompStage := func(name, stage string) {
		perOp(name, func(o opTrace) float64 { return stageMs(o.decomp, stage) })
	}
	compCtr := func(name, counter string) {
		perOp(name, func(o opTrace) float64 { return float64(o.comp.Counters[counter]) })
	}

	perWindow("critical.extract_ms", func(p replayed) float64 { return p.extractMs })
	perWindow("critical.cps", func(p replayed) float64 { return p.cps })
	perWindow("critical.saddles", func(p replayed) float64 { return p.saddles })
	perWindow("integrate.trace_ms", func(p replayed) float64 { return p.traceMs })
	compStage("integrate.trace_stage_ms", "trace")
	perWindow("integrate.separatrices", func(p replayed) float64 { return p.seps })
	perWindow("integrate.steps", func(p replayed) float64 { return p.steps })
	perWindow("integrate.ns_per_step", func(p replayed) float64 {
		if !(p.steps > 0) {
			return 0
		}
		return p.traceMs * 1e6 / p.steps
	})
	perWindow("frechet.check_ms", func(p replayed) float64 { return p.checkMs })
	perWindow("frechet.pairs", func(p replayed) float64 { return p.pairs })
	perWindow("frechet.dp_cells", func(p replayed) float64 { return p.dpCells })
	perWindow("ebound.vertex_bound_ns", func(p replayed) float64 { return p.vertexBoundNs })
	perWindow("ebound.vertices", func(p replayed) float64 { return p.vertices })
	perWindow("cpsz.compress_ms", func(p replayed) float64 { return p.cpszCompressMs })
	perWindow("cpsz.decompress_ms", func(p replayed) float64 { return p.cpszDecompressMs })
	compStage("cpsz.predict_quantize_ms", "predict-quantize")
	compStage("cpsz.histogram_ms", "histogram")
	compStage("cpsz.entropy_encode_ms", "entropy-encode")
	decompStage("cpsz.entropy_decode_ms", "entropy-decode")
	decompStage("cpsz.reconstruct_ms", "reconstruct")
	compCtr("cpsz.lossless_vertices", "lossless_vertices")
	compCtr("cpsz.chunks_encoded", "chunks_encoded")
	perOp("cpsz.chunks_decoded", func(o opTrace) float64 { return float64(o.decomp.Counters["chunks_decoded"]) })
	compCtr("bytes.section_eb", "bytes_section_eb")
	compCtr("bytes.section_quant", "bytes_section_quant")
	compCtr("bytes.section_raw", "bytes_section_raw")
	compCtr("bytes.container", "bytes_container")
	compCtr("bytes.patch", "bytes_patch")
	perOp("core.compress_ms", func(o opTrace) float64 { return o.compressMs })
	perOp("core.decompress_ms", func(o opTrace) float64 { return o.decompressMs })
	compStage("core.correction_ms", "correction")
	compStage("core.container_ms", "container")
	decompStage("core.patch_apply_ms", "patch-apply")
	perOp("core.untraced_ms", func(o opTrace) float64 { return o.untracedMs })
	compCtr("core.correction_iterations", "correction_iterations")
	compCtr("core.correction_trajectories", "correction_trajectories")
	compCtr("core.patched_vertices", "patched_vertices")
	set("core.archive_variants", float64(r.variants()), len(r.order))
	perOp("field.fetch_ms", func(o opTrace) float64 { return o.fetchMs })
	perOp("field.layers_fetched", func(o opTrace) float64 { return float64(o.layers) })
	compCtr("parallel.dispatches", "parallel_dispatches")
	compCtr("parallel.goroutines", "parallel_goroutines")
	perOp("parallel.busy_ms", func(o opTrace) float64 { return float64(o.comp.Counters["parallel_busy_ns"]) / 1e6 })
	set("parallel.speedup_w2", w1/percentile(w2, 0.10), len(w2)+1)
	set("host.ref_ms", percentile(r.refMs, 0.10), len(r.refMs))
	traced := make([]float64, len(ops))
	for i, o := range ops {
		traced[i] = o.compressMs
	}
	set("trace.overhead_pct", (percentile(traced, 0.10)-untraced)/untraced*100, len(ops))
	for name, x := range r.checkSummary() {
		set(name, x, len(r.order))
	}
	return out, nil
}

// checkSummary condenses the oracle's verdicts.
func (r *run) checkSummary() map[string]float64 {
	m := map[string]float64{
		"check.archives":               float64(len(r.order)),
		"check.max_err_over_eb":        0,
		"check.max_frechet_over_tau":   0,
		"check.incorrect_separatrices": 0,
		"check.cp_mismatches":          0,
	}
	for _, d := range r.order {
		v := r.archives[d].verdict
		if v == nil || v.err != nil {
			continue
		}
		m["check.max_err_over_eb"] = max(m["check.max_err_over_eb"], v.maxErrOverEb)
		m["check.max_frechet_over_tau"] = max(m["check.max_frechet_over_tau"], v.maxFrechetOverTau)
		m["check.incorrect_separatrices"] += float64(v.incorrectSeps)
		m["check.cp_mismatches"] += float64(v.cpMismatches)
	}
	return m
}
