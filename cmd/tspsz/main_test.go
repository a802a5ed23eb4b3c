package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// statsFlag must accept bare -stats (flag passes "true"), an explicit path,
// and the boolean negation the flag package can synthesize.
func TestStatsFlagParsing(t *testing.T) {
	var s statsFlag
	if err := s.Set("true"); err != nil || !s.enabled || s.path != "" {
		t.Fatalf("Set(true) -> %+v, err %v", s, err)
	}
	if err := s.Set("out.json"); err != nil || !s.enabled || s.path != "out.json" {
		t.Fatalf("Set(out.json) -> %+v, err %v", s, err)
	}
	if s.String() != "out.json" {
		t.Fatalf("String() = %q", s.String())
	}
	if err := s.Set("false"); err != nil || s.enabled {
		t.Fatalf("Set(false) -> %+v, err %v", s, err)
	}
	if !s.IsBoolFlag() {
		t.Fatal("IsBoolFlag must be true for the value-less form")
	}
}

// End-to-end CLI pass over the observability surface: -stats=path.json and
// -cpuprofile on compress and decompress must succeed, the stats JSON must
// parse and name every pipeline stage that ran, the byte-partition counters
// must sum to the archive size, and instrumentation must not change a
// single archive byte.
func TestCompressDecompressStats(t *testing.T) {
	dir := t.TempDir()
	fieldPath := filepath.Join(dir, "f.tspf")
	if code := realMain([]string{"gen", "-dataset", "cba", "-scale", "1", "-out", fieldPath}); code != 0 {
		t.Fatalf("gen exited %d", code)
	}

	// One worker: TspSZ-i's speculative correction at several workers is
	// not yet deterministic and can patch a different vertex set from run
	// to run, which would make the two archives differ for a reason other
	// than instrumentation.
	plainPath := filepath.Join(dir, "plain.tsz")
	args := []string{"compress", "-in", fieldPath, "-out", plainPath, "-variant", "i", "-eb", "5e-4", "-workers", "1"}
	if code := realMain(args); code != 0 {
		t.Fatalf("compress exited %d", code)
	}

	obsPath := filepath.Join(dir, "obs.tsz")
	statsPath := filepath.Join(dir, "stats.json")
	profPath := filepath.Join(dir, "cpu.pprof")
	args = []string{"compress", "-in", fieldPath, "-out", obsPath, "-variant", "i", "-eb", "5e-4", "-workers", "1",
		"-stats=" + statsPath, "-cpuprofile", profPath}
	if code := realMain(args); code != 0 {
		t.Fatalf("instrumented compress exited %d", code)
	}

	plain, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, observed) {
		t.Fatalf("instrumented archive differs from plain one (%d vs %d bytes)", len(observed), len(plain))
	}

	snap := readSnapshot(t, statsPath)
	for _, stage := range []string{"cp-extract", "trace", "predict-quantize", "histogram", "entropy-encode", "correction", "container"} {
		if !snap.has(stage) {
			t.Errorf("compress stats missing stage %q (has %v)", stage, snap.stageNames())
		}
	}
	partition := []string{"bytes_stream_header", "bytes_section_eb", "bytes_section_quant",
		"bytes_section_raw", "bytes_stream_trailer", "bytes_container"}
	var sum int64
	for _, ctr := range partition {
		sum += snap.Counters[ctr]
	}
	if sum != int64(len(observed)) {
		t.Errorf("byte partition sums to %d, archive is %d bytes", sum, len(observed))
	}
	if snap.Counters["parallel_dispatches"] == 0 {
		t.Error("dispatch hook recorded no parallel dispatches")
	}
	if fi, err := os.Stat(profPath); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile missing or empty: %v", err)
	}

	decPath := filepath.Join(dir, "dec.tspf")
	decStatsPath := filepath.Join(dir, "dec_stats.json")
	args = []string{"decompress", "-in", obsPath, "-out", decPath, "-stats=" + decStatsPath}
	if code := realMain(args); code != 0 {
		t.Fatalf("instrumented decompress exited %d", code)
	}
	dsnap := readSnapshot(t, decStatsPath)
	for _, stage := range []string{"entropy-decode", "reconstruct"} {
		if !dsnap.has(stage) {
			t.Errorf("decompress stats missing stage %q (has %v)", stage, dsnap.stageNames())
		}
	}
}

type snapshotDoc struct {
	Spans []struct {
		Stage string `json:"stage"`
	} `json:"spans"`
	Counters map[string]int64 `json:"counters"`
}

func (s *snapshotDoc) has(stage string) bool {
	for _, sp := range s.Spans {
		if sp.Stage == stage {
			return true
		}
	}
	return false
}

func (s *snapshotDoc) stageNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, sp := range s.Spans {
		if !seen[sp.Stage] {
			seen[sp.Stage] = true
			out = append(out, sp.Stage)
		}
	}
	return out
}

func readSnapshot(t *testing.T, path string) *snapshotDoc {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotDoc
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("stats JSON at %s does not parse: %v", path, err)
	}
	return &snap
}

// TestCompressRejectsNegativeTau: a negative -tau must fail the compress
// command before any output is written.
func TestCompressRejectsNegativeTau(t *testing.T) {
	dir := t.TempDir()
	fieldPath := filepath.Join(dir, "f.tspf")
	if code := realMain([]string{"gen", "-dataset", "cba", "-scale", "0.1", "-out", fieldPath}); code != 0 {
		t.Fatalf("gen exited %d", code)
	}
	outPath := filepath.Join(dir, "f.tsz")
	if code := realMain([]string{"compress", "-in", fieldPath, "-out", outPath, "-variant", "i", "-tau", "-1"}); code != 1 {
		t.Fatalf("compress -tau -1 exited %d, want 1", code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("rejected compress left files behind: %v", entries)
	}
}

// TestCompressRejectsUntraceableParams: RK4 parameters that would trace no
// separatrix (-epsp NaN, -h 0) must fail the compress command with exit
// code 1 before any output is written.
func TestCompressRejectsUntraceableParams(t *testing.T) {
	dir := t.TempDir()
	fieldPath := filepath.Join(dir, "f.tspf")
	if code := realMain([]string{"gen", "-dataset", "cba", "-scale", "0.1", "-out", fieldPath}); code != 0 {
		t.Fatalf("gen exited %d", code)
	}
	outPath := filepath.Join(dir, "f.tsz")
	for _, bad := range [][]string{{"-epsp", "NaN"}, {"-h", "0"}} {
		args := append([]string{"compress", "-in", fieldPath, "-out", outPath, "-variant", "1"}, bad...)
		if code := realMain(args); code != 1 {
			t.Fatalf("compress %v exited %d, want 1", bad, code)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("compress %v left files behind: %v", bad, entries)
		}
	}
}

// captureStderr runs fn with os.Stderr redirected and returns what it
// wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = saved }()
	fn()
	w.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	r.Close()
	return buf.String()
}

// TestTracingCommandsRejectUntraceableParams: inspect, export and compare
// trace separatrices too, so RK4 parameters that would trace nothing exit
// 1 before any trace, name the parameter, and leave no file behind (export
// writes none). Before the check, compare -h 0 printed "0 incorrect" and
// exited 0.
func TestTracingCommandsRejectUntraceableParams(t *testing.T) {
	dir := t.TempDir()
	fieldPath := filepath.Join(dir, "f.tspf")
	if code := realMain([]string{"gen", "-dataset", "cba", "-scale", "0.1", "-out", fieldPath}); code != 0 {
		t.Fatalf("gen exited %d", code)
	}
	vtkPath := filepath.Join(dir, "f.vtk")
	commands := [][]string{
		{"inspect", "-in", fieldPath},
		{"export", "-in", fieldPath, "-out", vtkPath},
		{"compare", "-orig", fieldPath, "-dec", fieldPath},
	}
	bad := []struct {
		flags []string
		names string
	}{
		{[]string{"-epsp", "NaN"}, "EpsP"},
		{[]string{"-epsp", "-1"}, "EpsP"},
		{[]string{"-h", "0"}, "H"},
		{[]string{"-h", "+Inf"}, "H"},
		{[]string{"-t", "0"}, "MaxSteps"},
	}
	for _, cmd := range commands {
		for _, b := range bad {
			args := append(append([]string(nil), cmd...), b.flags...)
			var code int
			stderr := captureStderr(t, func() { code = realMain(args) })
			if code != 1 {
				t.Fatalf("%v exited %d, want 1", args, code)
			}
			if !strings.Contains(stderr, b.names) {
				t.Fatalf("%v: message %q does not name %s", args, stderr, b.names)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Fatalf("%v left files behind: %v", args, entries)
			}
		}
		// The defaults still trace.
		if code := realMain(cmd); code != 0 {
			t.Fatalf("%v with default parameters exited %d", cmd, code)
		}
		os.Remove(vtkPath)
	}
}

// TestCompressStreamCLI drives compress -stream end to end: a 3D field
// streams off disk into a valid archive, the unsupported shapes exit with
// the header code, and no command leaves temp debris in the output
// directory.
func TestCompressStreamCLI(t *testing.T) {
	dir := t.TempDir()
	fieldPath := filepath.Join(dir, "h.tspf")
	if code := realMain([]string{"gen", "-dataset", "hurricane", "-scale", "0.05", "-out", fieldPath}); code != 0 {
		t.Fatalf("gen exited %d", code)
	}
	outPath := filepath.Join(dir, "h.tsz")
	args := []string{"compress", "-in", fieldPath, "-out", outPath, "-variant", "1", "-eb", "1e-2", "-stream"}
	if code := realMain(args); code != 0 {
		t.Fatalf("compress -stream exited %d", code)
	}
	decPath := filepath.Join(dir, "h.dec.tspf")
	if code := realMain([]string{"decompress", "-in", outPath, "-out", decPath}); code != 0 {
		t.Fatalf("decompress of streamed archive exited %d", code)
	}

	// TspSZ-i cannot stream: the library rejects it with a header error,
	// which must surface as the header exit code and leave no output.
	badPath := filepath.Join(dir, "bad.tsz")
	args = []string{"compress", "-in", fieldPath, "-out", badPath, "-variant", "i", "-stream"}
	if code := realMain(args); code != exitHeader {
		t.Fatalf("compress -stream -variant i exited %d, want %d", code, exitHeader)
	}
	if _, err := os.Stat(badPath); err == nil {
		t.Fatal("rejected streaming compress left an output file")
	}

	// A 2D field has no z-layers to stream.
	flatPath := filepath.Join(dir, "flat.tspf")
	if code := realMain([]string{"gen", "-dataset", "cba", "-scale", "1", "-out", flatPath}); code != 0 {
		t.Fatalf("gen cba exited %d", code)
	}
	args = []string{"compress", "-in", flatPath, "-out", badPath, "-variant", "1", "-stream"}
	if code := realMain(args); code != exitHeader {
		t.Fatalf("compress -stream on 2D field exited %d, want %d", code, exitHeader)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}
