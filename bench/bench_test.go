package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func sameInputs(a, b *inputs) bool {
	if len(a.windows) != len(b.windows) {
		return false
	}
	for i := range a.windows {
		wa, wb := a.windows[i], b.windows[i]
		if wa.off != wb.off || !sameField(wa.f, wb.f) || !bytes.Equal(wa.tspf, wb.tspf) {
			return false
		}
	}
	return true
}

func TestSeedDeterminesInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, err := w.makeInputs(1, w.crop)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.makeInputs(1, w.crop)
		c, _ := w.makeInputs(2, w.crop)
		if !sameInputs(a, b) {
			t.Errorf("%s: seed 1 gave different inputs on two calls", w.name)
		}
		if sameInputs(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave identical inputs", w.name)
		}
		for a := 0; a < 3; a++ {
			if w.crop[a] > 1 && float64(c.field[a]) < 1.25*float64(w.crop[a]) {
				t.Errorf("%s: field %v is less than 1.25x the crop %v", w.name, c.field, w.crop)
			}
		}
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		p float64
		n int
	}{{compressTail, 40}, {decompressTail, 200}} {
		if got := tailN(c.p); got != c.n {
			t.Errorf("tailN(%v) = %d, want %d", c.p, got, c.n)
		}
		for _, n := range []int{c.n - 1, c.n} {
			xs := make([]float64, n)
			for i := range xs {
				xs[n-1-i] = float64(i) // unsorted on purpose
			}
			v := percentile(xs, c.p)
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if want := n >= c.n; (beyond >= 10) != want {
				t.Errorf("p%v at n=%d has %d samples beyond", 100*c.p, n, beyond)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// manifest mirrors BENCHMARK.json; unknown keys are rejected.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestNames(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	for _, e := range m.EndToEnd {
		names = append(names, e.Name)
	}
	for _, p := range m.PerLayer {
		names = append(names, p.Name)
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

func TestManifestAgreesWithCode(t *testing.T) {
	m := readManifest(t)
	if strings.Join(m.Paths, ",") != "bench" || strings.Join(m.Command, " ") != "bash bench/run.sh" {
		t.Errorf("paths %v, command %v", m.Paths, m.Command)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %+v, code %q %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		d := endToEnd[i]
		if e.Bound == nil || e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || *e.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, code %+v", i, e, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(m.PerLayer), len(perLayer))
	}
	for i, p := range m.PerLayer {
		d := perLayer[i]
		if p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, code %+v", i, p, d)
		}
	}
}

// runQuick runs the command in-process and returns its output and summary.
func runQuick(t *testing.T, args ...string) (string, summary) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := realMain(append([]string{"-quick"}, args...), &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
		t.Fatalf("summary %+v\n%s", s, out.String())
	}
	return out.String(), s
}

// checkMetrics wants every metric of defs in the summary, and no other,
// and a line with value, unit and n for every metric of defs and printed.
func checkMetrics(t *testing.T, out string, s summary, defs, printed []metricDef) {
	t.Helper()
	if len(s.Metrics) != len(workloads)*len(defs) {
		t.Errorf("summary has %d metrics, want %d", len(s.Metrics), len(workloads)*len(defs))
	}
	for _, w := range workloads {
		for _, d := range defs {
			if got, ok := s.Metrics[w.name+"."+d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("%s %s: %+v in summary", w.name, d.Name, got)
			}
		}
		for _, d := range append(defs, printed...) {
			if !regexp.MustCompile(regexp.QuoteMeta(w.name) + ` +` + regexp.QuoteMeta(d.Name) + ` +\S+ +` + regexp.QuoteMeta(d.Unit) + ` +n=\d+`).MatchString(out) {
				t.Errorf("%s %s: no line with value, unit and n", w.name, d.Name)
			}
		}
	}
}

func TestQuickUntraced(t *testing.T) {
	res := filepath.Join(t.TempDir(), "result.json")
	out, s := runQuick(t, "-seed", "3", "-out", res)
	checkMetrics(t, out, s, endToEnd, reported)
	if _, err := os.Stat(res); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTraced(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "trace.json")
	out, s := runQuick(t, "-seed", "3", "-trace", "1", "-trace-out", spans)
	checkMetrics(t, out, s, perLayer, nil)
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	modules := make(map[string]bool)
	for _, sp := range doc.Spans {
		if sp.EndNs < sp.StartNs || sp.Parent >= len(doc.Spans) {
			t.Fatalf("bad span %+v", sp)
		}
		mod, _, _ := strings.Cut(sp.Name, ".")
		modules[mod] = true
	}
	for _, mod := range []string{"critical", "integrate", "frechet", "ebound", "cpsz", "core", "field", "parallel"} {
		if !modules[mod] {
			t.Errorf("no span of module %s", mod)
		}
	}
}

func TestOracleFlagsBadArchives(t *testing.T) {
	w, _ := findWorkload("ocean2d-i")
	opts, _ := w.settings()
	in, err := w.makeInputs(1, w.quick)
	if err != nil {
		t.Fatal(err)
	}
	win := in.windows[0]
	c, err := w.compress(win, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := check(w, win, opts, c.archive, c.res.Decompressed, true); !v.ok() {
		t.Fatalf("clean archive: %v", v)
	}
	wrong := c.res.Decompressed.Clone()
	wrong.U[0] += 1
	if v := check(w, win, opts, c.archive, wrong, false); v.ok() || !v.decodeMismatch {
		t.Errorf("mismatching reconstruction passed: %v", v)
	}
	if v := check(w, win, opts, c.archive[:len(c.archive)/2], nil, false); v.ok() || v.err == nil {
		t.Errorf("truncated archive passed: %v", v)
	}
	loose := opts
	loose.ErrBound /= 1e3
	if v := check(w, win, loose, c.archive, nil, false); v.ok() || v.maxErrOverEb <= 1 {
		t.Errorf("error beyond a tighter bound passed: %v", v)
	}
}

func writeResult(t *testing.T, path string, metrics map[string]float64) {
	t.Helper()
	wr := workloadResult{Name: "ocean2d-i", Metrics: make(map[string]value)}
	for name, x := range metrics {
		wr.Metrics[name] = value{Value: x, Unit: unitOf(name)}
	}
	data, _ := json.Marshal(resultFile{Workloads: []workloadResult{wr}})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := map[string]float64{}
	for _, d := range endToEnd {
		base[d.Name] = 100
	}
	// Parent runs jitter by ±0.5%; the change is 5% better on compress_MBps
	// in every pair and the same elsewhere.
	for i := 0; i < 10; i++ {
		jit := 1 + 0.005*float64(i%3-1)
		p, c := map[string]float64{}, map[string]float64{}
		for name, x := range base {
			p[name], c[name] = x*jit, x*jit
		}
		c["compress_MBps"] *= 1.05
		writeResult(t, filepath.Join(dir, fmt.Sprintf("parent%02d.json", i)), p)
		writeResult(t, filepath.Join(dir, fmt.Sprintf("change%02d.json", i)), c)
	}
	var out bytes.Buffer
	bad, err := compareMain(filepath.Join(dir, "parent*.json"), filepath.Join(dir, "change*.json"), "ocean2d-i:compress_MBps", &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad || !strings.Contains(out.String(), "claim compress_MBps on ocean2d-i: met") {
		t.Fatalf("claim should be met without regressions:\n%s", out.String())
	}
	// Every run of the change reads 30% worse on ratio.
	for i := 0; i < 10; i++ {
		c := map[string]float64{}
		for name, x := range base {
			c[name] = x
		}
		c["ratio"] = 70
		writeResult(t, filepath.Join(dir, fmt.Sprintf("change%02d.json", i)), c)
	}
	out.Reset()
	if bad, err = compareMain(filepath.Join(dir, "parent*.json"), filepath.Join(dir, "change*.json"), "ocean2d-i:compress_MBps", &out); err != nil {
		t.Fatal(err)
	}
	if !bad || !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "not met") {
		t.Fatalf("regression and unmet claim not reported:\n%s", out.String())
	}
}

// The determinism count is per window: a second archive for one window is a
// variant, archives of different windows are not.
func TestVariantsCountPerWindow(t *testing.T) {
	r := &run{archives: map[[32]byte]*archive{
		{1}: {window: 0}, {2}: {window: 1}, {3}: {window: 1},
	}}
	if got := r.variants(); got != 2 {
		t.Fatalf("variants = %d, want 2", got)
	}
}
