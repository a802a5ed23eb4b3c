// Command bench is the repository benchmark: seeded TspSZ workloads run as
// a closed loop (one process, one op at a time, workers=2) through the
// public tspsz API, every distinct archive checked by a guarantee oracle.
//
//	bash bench/run.sh --workload ocean2d-i --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh -seed 1 -out result.json            # all workloads
//	bash bench/run.sh -seed 1 -trace 1 -trace-out trace.json
//	bash bench/run.sh -compare 'parent*.json' -with 'change*.json'
//
// An untraced run (-trace 0) prints every end-to-end metric with its unit
// and sample count; a traced run (-trace 1) prints the per-layer metrics.
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. Failed ops are reported, not fatal: a
// measuring run exits non-zero only when the harness itself fails, and
// -compare exits 1 on a regression or an unmet claim. See bench/README.md
// for the workloads, metrics and measured baselines.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of a measuring run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	out      string
	quick    bool
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var cmp, with, claim string
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all (round-robin over every workload)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the input windows are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 25, "measured seconds per workload")
	fs.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans to this JSON file")
	fs.StringVar(&o.out, "out", "", "write the metrics and raw per-op samples to this JSON file")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: two small windows, one set-up, one timed round")
	fs.StringVar(&cmp, "compare", "", "glob of parent result files (-out) to compare against -with")
	fs.StringVar(&with, "with", "", "glob of change result files")
	fs.StringVar(&claim, "claim", "", "workload:metric a change claims to improve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || (cmp == "") != (with == "") {
		fmt.Fprintln(stderr, "bench: usage: see -help")
		return 2
	}
	o.trace = trace == 1
	var err error
	if cmp != "" {
		var regressed bool
		regressed, err = compareMain(cmp, with, claim, stdout)
		if err == nil && regressed {
			return 1
		}
	} else {
		err = measureMain(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return 0
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name            string               `json:"name"`
	Crop            [3]int               `json:"crop"`
	Field           [3]int               `json:"field"`
	Windows         [][3]int             `json:"windows"`
	Metrics         map[string]value     `json:"metrics"`
	Samples         map[string][]float64 `json:"samples"`
	Attempted       int                  `json:"attempted"`
	Failed          int                  `json:"failed"`
	ArchiveVariants int                  `json:"archive_variants"`
	Check           map[string]float64   `json:"check"`
	Errors          []string             `json:"errors,omitempty"`
}

func measureMain(o options, stdout io.Writer) error {
	selected := append([]workload(nil), workloads...)
	if o.workload != "all" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	reps := setupReps
	if o.quick {
		reps, o.seconds = 1, 0
	}
	if o.seconds < 0 {
		return errors.New("-seconds must not be negative")
	}
	budget := time.Duration(o.seconds * float64(time.Second))

	var runs []*run
	for i := range selected {
		w := &selected[i]
		crop := w.crop
		if o.quick {
			crop, w.lattice = w.quick, [3]int{2, 1, 1}
		}
		r, err := setup(w, o.seed, crop, reps)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		runs = append(runs, r)
	}

	metrics := make([]map[string]value, len(runs))
	if !o.trace {
		start := time.Now()
		measure(runs, budget*time.Duration(len(runs)))
		measured := time.Since(start)
		for i, r := range runs {
			r.verify(false)
			metrics[i] = r.endToEnd()
		}
		fmt.Fprintf(stdout, "measured for %.1f s, checked for %.1f s\n", measured.Seconds(), (time.Since(start) - measured).Seconds())
	} else {
		t := newTracer()
		for i, r := range runs {
			m, err := r.traced(t, budget)
			if err != nil {
				return err
			}
			metrics[i] = m
		}
		if o.traceOut != "" {
			if err := writeFile(o.traceOut, t.writeJSON); err != nil {
				return err
			}
		}
	}

	defs, printed := endToEnd, append(append([]metricDef(nil), endToEnd...), reported...)
	if o.trace {
		defs, printed = perLayer, perLayer
	}
	sum := summary{Metrics: make(map[string]summaryItem)}
	res := resultFile{Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	fmt.Fprintf(stdout, "%-14s %-30s %16s %-6s %s\n", "workload", "metric", "value", "unit", "n")
	for i, r := range runs {
		for _, d := range printed {
			v := metrics[i][d.Name]
			note := ""
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				// Nothing to measure, e.g. every op of the kind failed;
				// JSON has no NaN, and the failures are reported.
				v.Value, note = 0, " (not measured)"
				metrics[i][d.Name] = v
			} else if (d.Name == "compress_ms_p75" && v.N < tailN(compressTail)) ||
				(d.Name == "decompress_ms_p95" && v.N < tailN(decompressTail)) {
				note = " (fewer than ten samples beyond this percentile)"
			}
			fmt.Fprintf(stdout, "%-14s %-30s %16.6g %-6s n=%d%s\n", r.w.name, d.Name, v.Value, v.Unit, v.N, note)
		}
		for _, d := range defs {
			v := metrics[i][d.Name]
			key := d.Name
			if len(runs) > 1 {
				key = r.w.name + "." + d.Name
			}
			sum.Metrics[key] = summaryItem{Value: v.Value, Unit: v.Unit}
		}
		fmt.Fprintf(stdout, "%-14s failed %d of %d ops; %d distinct archives, at most %d per window; host.ref_ms p10 %.3f, times scaled by %.4f\n",
			r.w.name, r.failed, r.attempted, len(r.order), r.variants(), percentile(r.refMs, 0.10), r.hostSpeed())
		for _, e := range r.errs {
			fmt.Fprintf(stdout, "%-14s failure: %s\n", r.w.name, e)
		}
		sum.Attempted += r.attempted
		sum.Failed += r.failed
		res.Workloads = append(res.Workloads, r.result(metrics[i]))
	}
	sum.Correct = sum.Failed == 0
	if o.out != "" {
		if err := writeFile(o.out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			return enc.Encode(res)
		}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func (r *run) result(m map[string]value) workloadResult {
	res := workloadResult{
		Name: r.w.name, Field: r.in.field, Metrics: m,
		Samples: map[string][]float64{
			"compress_ms":   r.compressMs,
			"decompress_ms": r.decompressMs,
			"ref_ms":        r.refMs,
			"setup_s":       r.setupS,
			"peak_rss_mb":   r.rssMB,
		},
		Attempted: r.attempted, Failed: r.failed, ArchiveVariants: r.variants(),
		Check: r.checkSummary(), Errors: r.errs,
	}
	nx, ny, nz := r.in.windows[0].f.Grid.Dims()
	res.Crop = [3]int{nx, ny, nz}
	for _, win := range r.in.windows {
		res.Windows = append(res.Windows, win.off)
	}
	return res
}

// writeFile writes a file through fn and reports the first error.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
