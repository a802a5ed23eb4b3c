package main

// -compare judges a change against its parent from two sets of result files
// written with -out by the same benchmark code at the same settings.
//
// Every (end-to-end metric, workload) row gets a verdict:
//
//   - regressed: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: either side's run-to-run spread (interquartile distance
//     over median) is wider than the bound, so the runs cannot tell;
//   - better: the spread is wider than the bound, but every change run reads
//     better than every parent run;
//   - ok: otherwise.
//
// A claim (-claim workload:metric) is met only with at least ten pairs of
// runs (parent and change files paired in name order, which the operator
// alternates), the change winning at least nine tenths of them with ties
// counting for neither, and a median gap wider than the parent's own
// interquartile distance.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// series maps workload → metric → one value per run file, in file order.
type series map[string]map[string][]float64

func loadRuns(glob string) (series, int, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, 0, err
	}
	if len(files) == 0 {
		return nil, 0, fmt.Errorf("no result files match %q", glob)
	}
	s := make(series)
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, 0, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		if rf.Trace {
			return nil, 0, fmt.Errorf("%s: a traced run has no end-to-end metrics", name)
		}
		for _, w := range rf.Workloads {
			if s[w.Name] == nil {
				s[w.Name] = make(map[string][]float64)
			}
			for metric, v := range w.Metrics {
				s[w.Name][metric] = append(s[w.Name][metric], v.Value)
			}
		}
	}
	return s, len(files), nil
}

// gain is the relative change of the median, signed so that positive is
// better.
func gain(d metricDef, parent, change []float64) float64 {
	pm := median(parent)
	g := (median(change) - pm) / pm
	if d.Better == "lower" {
		g = -g
	}
	return g
}

func better(d metricDef, a, b float64) bool {
	if d.Better == "lower" {
		return a < b
	}
	return a > b
}

func judge(d metricDef, parent, change []float64) string {
	if len(parent) < 2 || len(change) < 2 {
		return "unresolved"
	}
	if spread(parent) > d.Bound || spread(change) > d.Bound {
		for _, c := range change {
			for _, p := range parent {
				if !better(d, c, p) {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	if -gain(d, parent, change) > d.Bound {
		return "regressed"
	}
	return "ok"
}

// claimMet applies the gain rule to one row and explains the outcome.
func claimMet(d metricDef, parent, change []float64) (bool, string) {
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(d, change[i], parent[i]) {
			wins++
		}
	}
	q1, _, q3 := quartiles(parent)
	gap := median(change) - median(parent)
	if d.Better == "lower" {
		gap = -gap
	}
	met := pairs >= 10 && 10*wins >= 9*pairs && gap > q3-q1
	return met, fmt.Sprintf("%d pairs, change won %d; median gap %.6g %s against parent IQR %.6g",
		pairs, wins, gap, d.Unit, q3-q1)
}

var severity = map[string]int{"ok": 0, "better": 0, "missing": 1, "unresolved": 2, "regressed": 3}

func compareMain(parentGlob, changeGlob, claim string, w io.Writer) (bad bool, err error) {
	parent, np, err := loadRuns(parentGlob)
	if err != nil {
		return false, err
	}
	change, nc, err := loadRuns(changeGlob)
	if err != nil {
		return false, err
	}
	var claimW, claimM string
	var claimDef metricDef
	if claim != "" {
		claimW, claimM, _ = strings.Cut(claim, ":")
		for _, m := range endToEnd {
			if m.Name == claimM {
				claimDef = m
			}
		}
		if claimDef.Name == "" {
			return false, fmt.Errorf("-claim wants workload:metric with an end-to-end metric, got %q", claim)
		}
		if _, err := findWorkload(claimW); err != nil {
			return false, err
		}
	}

	fmt.Fprintf(w, "parent: %d runs, change: %d runs; each cell is the change's median against the parent's (+ is better) and its verdict\n", np, nc)
	fmt.Fprintf(w, "%-14s %-11s", "workload", "verdict")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %-18s", fmt.Sprintf("%s(%g%%)", d.Name, d.Bound*100))
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		if parent[wl.name] == nil && change[wl.name] == nil {
			continue
		}
		worst := "ok"
		var cells []string
		for _, d := range endToEnd {
			p, c := parent[wl.name][d.Name], change[wl.name][d.Name]
			status, cell := "missing", "missing"
			if len(p) > 0 && len(c) > 0 {
				status = judge(d, p, c)
				cell = fmt.Sprintf("%+.2f%% %s", 100*gain(d, p, c), status)
			}
			if severity[status] > severity[worst] {
				worst = status
			}
			cells = append(cells, cell)
		}
		bad = bad || worst == "regressed"
		fmt.Fprintf(w, "%-14s %-11s", wl.name, worst)
		for _, c := range cells {
			fmt.Fprintf(w, " %-18s", c)
		}
		fmt.Fprintln(w)
	}
	if claim != "" {
		met, why := claimMet(claimDef, parent[claimW][claimM], change[claimW][claimM])
		verdict := "met"
		if !met {
			verdict, bad = "not met", true
		}
		fmt.Fprintf(w, "claim %s on %s: %s (%s)\n", claimM, claimW, verdict, why)
	}
	return bad, nil
}
