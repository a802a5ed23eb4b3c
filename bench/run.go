package main

// The untraced phase: a closed loop of one op at a time. Each round
// compresses one window, decodes the archive decompressReps times, and times
// the reference kernel once; a forced GC before each batch keeps one op's
// garbage from being collected on the next op's clock. The first pass over
// the windows is their warm-up: its compress ops start from a scavenged
// heap, as in a fresh process, and give the peak_rss_mb samples instead of
// compress timings.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"tspsz"
	"tspsz/internal/bitmap"
)

const (
	// decompressReps decodes per round: enough for decompress_ms_p95 to
	// have ten samples beyond it once a run reaches 25 rounds.
	decompressReps = 8
	// setupReps is how often a run sets each workload up; setup_s is the
	// median, so one cold start does not decide it.
	setupReps = 3
	// maxErrs caps the failure messages a run keeps.
	maxErrs = 8
)

// archive is one distinct archive (by SHA-256) and the ops that touched it.
type archive struct {
	window   int
	bytes    []byte
	want     *tspsz.Field   // reconstruction every decode must reproduce
	lossless *bitmap.Bitmap // Result.LosslessVertices, in-memory path only
	// compressOps produced the archive; decompressOps decoded it, of which
	// failedOps already failed on their own.
	compressOps, decompressOps, failedOps int
	verdict                               *verdict
}

// run is one workload's state across set-up, the measured phase and the
// oracle.
type run struct {
	w    *workload
	opts tspsz.Options
	in   *inputs
	mb   float64 // input megabytes (1e6 B) per op

	setupS       []float64
	rssMB        []float64 // resident high-water mark of each window's first compress
	compressMs   []float64
	compressWin  []int // window of each compressMs sample
	decompressMs []float64
	refMs        []float64

	inBytes, outBytes int64
	attempted, failed int
	errs              []string

	archives map[[sha256.Size]byte]*archive
	order    [][sha256.Size]byte // first-seen order
}

// setup generates the inputs and runs one untimed warm-up op, reps times.
func setup(w *workload, seed int64, crop [3]int, reps int) (*run, error) {
	opts, err := w.settings()
	if err != nil {
		return nil, err
	}
	r := &run{w: w, opts: opts, archives: make(map[[sha256.Size]byte]*archive)}
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		in, err := w.makeInputs(seed, crop)
		if err != nil {
			return nil, err
		}
		if c, err := w.compress(in.windows[0], opts, nil); err != nil {
			r.fail(fmt.Errorf("warm-up compress: %w", err))
		} else if _, err := tspsz.Decompress(c.archive, workers); err != nil {
			r.fail(fmt.Errorf("warm-up decompress: %w", err))
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		r.in = in
	}
	r.mb = float64(r.in.windows[0].f.SizeBytes()) / 1e6
	return r, nil
}

// measure runs rounds until budget has passed and every run has had a timed
// round after its first pass. With several workloads each round runs one op
// of each, rotating which goes first, so slow and fast host phases fall on
// all of them alike.
func measure(runs []*run, budget time.Duration) {
	deadline := time.Now().Add(budget)
	minRounds := 0
	for _, r := range runs {
		minRounds = max(minRounds, len(r.in.windows)+1)
	}
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		for j := range runs {
			runs[(i+j)%len(runs)].round(i)
		}
	}
}

func (r *run) round(i int) {
	k := i % len(r.in.windows)
	first := i < len(r.in.windows)
	if first {
		debug.FreeOSMemory()
		resetPeakRSS()
	} else {
		runtime.GC()
	}
	start := time.Now()
	c, err := r.w.compress(r.in.windows[k], r.opts, nil)
	el := time.Since(start)
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("compress window %d: %w", k, err))
		return
	}
	if first {
		r.rssMB = append(r.rssMB, peakRSSMB())
	} else {
		r.compressMs = append(r.compressMs, ms(el))
		r.compressWin = append(r.compressWin, k)
	}
	a := r.record(k, c)
	runtime.GC()
	for j := 0; j < decompressReps; j++ {
		start := time.Now()
		dec, err := tspsz.Decompress(c.archive, workers)
		el := time.Since(start)
		r.decoded(a, dec, err)
		if err == nil {
			r.decompressMs = append(r.decompressMs, ms(el))
		}
	}
	r.refMs = append(r.refMs, refKernel())
}

// record books a successful compress op under its archive's digest.
func (r *run) record(k int, c compressed) *archive {
	d := sha256.Sum256(c.archive)
	a := r.archives[d]
	if a == nil {
		a = &archive{window: k, bytes: c.archive}
		if c.res != nil {
			a.want, a.lossless = c.res.Decompressed, c.res.LosslessVertices
		}
		r.archives[d] = a
		r.order = append(r.order, d)
	} else if c.res != nil && !sameField(c.res.Decompressed, a.want) {
		r.fail(fmt.Errorf("window %d: identical archives came with different reconstructions", k))
	}
	a.compressOps++
	r.inBytes += int64(r.in.windows[k].f.SizeBytes())
	r.outBytes += int64(len(c.archive))
	return a
}

// decoded books one decompress op of archive a.
func (r *run) decoded(a *archive, dec *tspsz.Field, err error) {
	r.attempted++
	a.decompressOps++
	switch {
	case err != nil:
		r.fail(fmt.Errorf("decompress window %d: %w", a.window, err))
		a.failedOps++
	case a.want == nil:
		a.want = dec
	case !sameField(dec, a.want):
		r.fail(fmt.Errorf("window %d: decode differs from the reference reconstruction", a.window))
		a.failedOps++
	}
}

func (r *run) fail(err error) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, err.Error())
	}
}

// verify runs the oracle once per distinct archive (exactFrechet as in
// check). A violation fails every op that produced or decoded the archive
// and had not failed already.
func (r *run) verify(exactFrechet bool) {
	for _, d := range r.order {
		a := r.archives[d]
		if a.verdict != nil {
			continue
		}
		a.verdict = check(r.w, r.in.windows[a.window], r.opts, a.bytes, a.want, exactFrechet)
		if !a.verdict.ok() {
			r.failed += a.compressOps + a.decompressOps - a.failedOps
			if len(r.errs) < maxErrs {
				r.errs = append(r.errs, fmt.Sprintf("window %d archive %x: %v", a.window, d[:6], a.verdict))
			}
		}
	}
}

// variants is the largest number of distinct archives any one window
// produced. Compression is meant to be deterministic, so it should be 1.
func (r *run) variants() int {
	per := make(map[int]int)
	n := 0
	for _, a := range r.archives {
		per[a.window]++
		n = max(n, per[a.window])
	}
	return n
}

// psnr is the mean over windows of the PSNR of each window's first archive.
func (r *run) psnr() float64 {
	seen := make(map[int]bool)
	var xs []float64
	for _, d := range r.order {
		a := r.archives[d]
		if seen[a.window] || a.verdict == nil || a.verdict.err != nil || math.IsInf(a.verdict.psnr, 0) {
			continue
		}
		seen[a.window] = true
		xs = append(xs, a.verdict.psnr)
	}
	return mean(xs)
}

// value is one reported metric with its sample count.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// hostSpeed is how much faster than nominal the host ran during the run:
// refNominalMs over the reference kernel's 10th-percentile time. The low
// percentile is the host's uncontended speed; on a shared host, neighbours
// slow a varying share of all ops, which the percentile filters out, and
// the clock and cache state move that speed from run to run, which the
// scaling cancels.
func (r *run) hostSpeed() float64 {
	return refNominalMs / percentile(r.refMs, 0.10)
}

// endToEnd computes the end-to-end and the reported metrics of an untraced
// run. Times are scaled to the nominal host: a time t measured on a host
// running s times nominal speed reads t·s.
func (r *run) endToEnd() map[string]value {
	m := make(map[string]value)
	add := func(name string, x float64, n int) { m[name] = value{Value: x, Unit: unitOf(name), N: n} }
	s := r.hostSpeed()
	nc, nd := len(r.compressMs), len(r.decompressMs)
	add("compress_MBps", r.mb/(s*percentile(r.compressMs, 0.10)/1000), nc)
	add("decompress_MBps", r.mb/(s*percentile(r.decompressMs, 0.10)/1000), nd)
	add("ratio", float64(r.inBytes)/float64(r.outBytes), nc)
	add("psnr_db", r.psnr(), len(r.in.windows))
	add("setup_s", s*median(r.setupS), len(r.setupS))
	add("peak_rss_mb", mean(r.rssMB), len(r.rssMB))
	add("compress_ms_p75", s*percentile(r.compressMs, compressTail), nc)
	add("decompress_ms_p95", s*percentile(r.decompressMs, decompressTail), nd)
	add("failed_frac", float64(r.failed)/float64(r.attempted), r.attempted)
	return m
}

// resetPeakRSS lowers the kernel's resident high-water mark of this process
// to its current resident size (Linux 4.0+), so the next peakRSSMB covers
// what ran since. Where procfs refuses the write, peakRSSMB keeps reporting
// the process's peak so far.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	f.Write([]byte("5"))
	f.Close()
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
