package main

// The metric tables. BENCHMARK.json at the repository root repeats them
// (bench_test.go keeps the two in step): end-to-end metrics are printed
// by an untraced run and carry the regression bound a later change is held
// to, per-layer metrics are printed by a traced run and carry none.

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics leave it zero.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// Percentiles the tail metrics report, and the sample counts at which each
// has at least ten samples beyond it (see tailN).
const (
	compressTail   = 0.75
	decompressTail = 0.95
)

// Throughputs use the 10th-percentile op time, and every time is scaled to
// the nominal host speed (run.hostSpeed). On the shared 2-vCPU host the
// bounds were set on, neighbours slow a share of all ops 1.5-2x and that
// share changes from minute to minute: medians moved 15-20% between runs
// of the same code, the scaled 10th percentiles mostly 2-8%. The bounds
// and the spreads they were set from are in bench/README.md.
var endToEnd = []metricDef{
	// Input MB (1e6 B) over the 10th-percentile compress wall time.
	{"compress_MBps", "MB/s", "higher", 0.25},
	// Input MB over the 10th-percentile decompress wall time.
	{"decompress_MBps", "MB/s", "higher", 0.25},
	// Total input bytes over total archive bytes of the run's compress ops.
	{"ratio", "x", "higher", 0.10},
	// Mean over the run's windows of metrics.PSNR(original, decoded).
	{"psnr_db", "dB", "higher", 0.04},
	// Median over the run's set-ups of generate + crop + one warm-up op.
	{"setup_s", "s", "lower", 0.25},
	// Mean over the windows of the resident high-water mark of the
	// window's first compress, each from a scavenged heap.
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// reported are printed beside the end-to-end metrics but carry no bound and
// stay out of BENCHMARK.json: the tails follow the host's neighbour load
// (15-20% between runs), and failed_frac is zero when all is well.
var reported = []metricDef{
	{"compress_ms_p75", "ms", "lower", 0},
	{"decompress_ms_p95", "ms", "lower", 0},
	{"failed_frac", "fraction", "lower", 0},
}

var perLayer = []metricDef{
	{"critical.extract_ms", "ms", "lower", 0},
	{"critical.cps", "count", "lower", 0},
	{"critical.saddles", "count", "lower", 0},
	{"integrate.trace_ms", "ms", "lower", 0},
	{"integrate.trace_stage_ms", "ms", "lower", 0},
	{"integrate.separatrices", "count", "lower", 0},
	{"integrate.steps", "count", "lower", 0},
	{"integrate.ns_per_step", "ns", "lower", 0},
	{"frechet.check_ms", "ms", "lower", 0},
	{"frechet.pairs", "count", "lower", 0},
	{"frechet.dp_cells", "count", "lower", 0},
	{"ebound.vertex_bound_ns", "ns", "lower", 0},
	{"ebound.vertices", "count", "lower", 0},
	{"cpsz.compress_ms", "ms", "lower", 0},
	{"cpsz.decompress_ms", "ms", "lower", 0},
	{"cpsz.predict_quantize_ms", "ms", "lower", 0},
	{"cpsz.histogram_ms", "ms", "lower", 0},
	{"cpsz.entropy_encode_ms", "ms", "lower", 0},
	{"cpsz.entropy_decode_ms", "ms", "lower", 0},
	{"cpsz.reconstruct_ms", "ms", "lower", 0},
	{"cpsz.lossless_vertices", "count", "lower", 0},
	{"cpsz.chunks_encoded", "count", "lower", 0},
	{"cpsz.chunks_decoded", "count", "lower", 0},
	{"bytes.section_eb", "B", "lower", 0},
	{"bytes.section_quant", "B", "lower", 0},
	{"bytes.section_raw", "B", "lower", 0},
	{"bytes.container", "B", "lower", 0},
	{"bytes.patch", "B", "lower", 0},
	{"core.compress_ms", "ms", "lower", 0},
	{"core.decompress_ms", "ms", "lower", 0},
	{"core.correction_ms", "ms", "lower", 0},
	{"core.container_ms", "ms", "lower", 0},
	{"core.patch_apply_ms", "ms", "lower", 0},
	{"core.untraced_ms", "ms", "lower", 0},
	{"core.correction_iterations", "count", "lower", 0},
	{"core.correction_trajectories", "count", "lower", 0},
	{"core.patched_vertices", "count", "lower", 0},
	{"core.archive_variants", "count", "lower", 0},
	{"field.fetch_ms", "ms", "lower", 0},
	{"field.layers_fetched", "count", "lower", 0},
	{"parallel.dispatches", "count", "lower", 0},
	{"parallel.goroutines", "count", "lower", 0},
	{"parallel.busy_ms", "ms", "lower", 0},
	{"parallel.speedup_w2", "x", "higher", 0},
	{"host.ref_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"check.archives", "count", "higher", 0},
	{"check.max_err_over_eb", "x", "lower", 0},
	{"check.max_frechet_over_tau", "x", "lower", 0},
	{"check.incorrect_separatrices", "count", "lower", 0},
	{"check.cp_mismatches", "count", "lower", 0},
}

func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, reported, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
