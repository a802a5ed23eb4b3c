package tspsz_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tspsz"
	"tspsz/internal/faultinject"
)

// exitCodeOf runs the binary and returns its exit code plus combined output.
func exitCodeOf(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return ee.ExitCode(), string(out)
}

// The CLI must map the stream-failure taxonomy to distinct exit codes, so
// batch pipelines over thousands of archives can branch on $? alone:
// 0 ok, 2 usage, 3 truncated, 4 corrupt, 5 version, 6 header.
func TestCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exit codes in short mode")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "tspsz")

	f := demoField()
	res, err := tspsz.Compress(f, tspsz.Options{Variant: tspsz.TspSZ1, Mode: tspsz.ModeAbsolute, ErrBound: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	stream := res.Bytes
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	valid := write("valid.tsz", stream)
	truncated := write("truncated.tsz", faultinject.Truncate(stream, len(stream)/2))
	corrupt := write("corrupt.tsz", faultinject.FlipBit(stream, len(stream)/2, 0))
	futureVersion := write("future.tsz", faultinject.ZeroRange(stream, 4, 5)) // version byte -> 0
	badMagic := write("bad-magic.tsz", append([]byte("NOPE"), stream[4:]...))
	outPath := filepath.Join(dir, "out.tspf")
	// Archives of every other format generation: container versions and
	// bare cpSZ stream versions this build no longer reads.
	cp, err := tspsz.CompressCP(f, tspsz.ModeAbsolute, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	withVersion := func(data []byte, v byte) []byte {
		out := append([]byte(nil), data...)
		out[4] = v
		return out
	}
	var versions []string
	for _, v := range []byte{1, 2, 4} {
		versions = append(versions, write(fmt.Sprintf("container-v%d.tsz", v), withVersion(stream, v)))
	}
	var streamVersions []string
	for _, v := range []byte{1, 2, 3, 5} {
		streamVersions = append(streamVersions, write(fmt.Sprintf("stream-v%d.cpsz", v), withVersion(cp.Bytes, v)))
	}

	type exitCase struct {
		name string
		args []string
		want int
	}
	cases := []exitCase{
		{"no subcommand", nil, 2},
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"verify ok", []string{"verify", "-in", valid}, 0},
		{"decompress ok", []string{"decompress", "-in", valid, "-out", outPath}, 0},
		{"missing flag", []string{"verify"}, 1},
		{"verify truncated", []string{"verify", "-in", truncated}, 3},
		{"decompress truncated", []string{"decompress", "-in", truncated, "-out", outPath}, 3},
		{"verify corrupt", []string{"verify", "-in", corrupt}, 4},
		{"decompress corrupt", []string{"decompress", "-in", corrupt, "-out", outPath}, 4},
		{"verify version", []string{"verify", "-in", futureVersion}, 5},
		{"decompress version", []string{"decompress", "-in", futureVersion, "-out", outPath}, 5},
		{"verify header", []string{"verify", "-in", badMagic}, 6},
		{"decompress header", []string{"decompress", "-in", badMagic, "-out", outPath}, 6},
	}
	for _, p := range versions {
		cases = append(cases,
			exitCase{"verify " + filepath.Base(p), []string{"verify", "-in", p}, 5},
			exitCase{"decompress " + filepath.Base(p), []string{"decompress", "-in", p, "-out", outPath}, 5})
	}
	for _, p := range streamVersions {
		cases = append(cases, exitCase{"verify " + filepath.Base(p), []string{"verify", "-in", p}, 5})
	}
	for _, tc := range cases {
		got, out := exitCodeOf(t, bin, tc.args...)
		if got != tc.want {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, got, tc.want, out)
		}
	}
	// verify -report lists every failure but exits with the class of the
	// first, which is the failure plain verify reports.
	for _, p := range append([]string{truncated, corrupt, futureVersion, badMagic}, append(versions, streamVersions...)...) {
		want, _ := exitCodeOf(t, bin, "verify", "-in", p)
		if got, out := exitCodeOf(t, bin, "verify", "-report", "-in", p); got != want {
			t.Errorf("verify -report %s: exit code %d, verify exits %d\n%s", filepath.Base(p), got, want, out)
		}
	}

	if _, out := exitCodeOf(t, bin, "verify", "-in", valid); !strings.Contains(out, "all checksums OK") {
		t.Errorf("verify output: %s", out)
	}
}

// TestCLISalvageAndReport covers the degraded-operation surface: an archive
// strict decompress rejects must still decompress with -salvage (exit 0,
// damage narrated), verify -report must list every failure and exit with
// the class of the first, and an expired -timeout must exit 8.
func TestCLISalvageAndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI salvage in short mode")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "tspsz")

	f := demoField()
	res, err := tspsz.Compress(f, tspsz.Options{Variant: tspsz.TspSZ1, Mode: tspsz.ModeAbsolute, ErrBound: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	valid := write("valid.tsz", res.Bytes)
	// Flip the last inner payload byte (before the inner and container
	// trailers): a raw chunk plus both seals break.
	damaged := write("damaged.tsz", faultinject.FlipBit(res.Bytes, len(res.Bytes)-25, 0))
	outPath := filepath.Join(dir, "out.tspf")

	if code, out := exitCodeOf(t, bin, "decompress", "-in", damaged, "-out", outPath); code != 4 {
		t.Errorf("strict decompress of damaged archive: exit %d, want 4\n%s", code, out)
	}
	code, out := exitCodeOf(t, bin, "decompress", "-salvage", "-in", damaged, "-out", outPath)
	if code != 0 {
		t.Fatalf("salvage decompress: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "salvage:") || !strings.Contains(out, "recovered") {
		t.Errorf("salvage output missing damage narration:\n%s", out)
	}
	if fi, err := os.Stat(outPath); err != nil || fi.Size() == 0 {
		t.Errorf("salvage wrote no field: %v", err)
	}
	if code, out := exitCodeOf(t, bin, "decompress", "-salvage", "-in", valid, "-out", outPath); code != 0 || !strings.Contains(out, "intact") {
		t.Errorf("salvage of clean archive: exit %d\n%s", code, out)
	}

	if code, out := exitCodeOf(t, bin, "verify", "-report", "-in", valid); code != 0 || !strings.Contains(out, "all checksums OK") {
		t.Errorf("verify -report clean: exit %d\n%s", code, out)
	}
	code, out = exitCodeOf(t, bin, "verify", "-report", "-in", damaged)
	if code != 4 {
		t.Errorf("verify -report damaged: exit %d, want 4\n%s", code, out)
	}
	if !strings.Contains(out, "integrity failure") || strings.Count(out, "\n") < 2 {
		t.Errorf("verify -report should list every failure:\n%s", out)
	}

	if code, out := exitCodeOf(t, bin, "decompress", "-timeout", "1ns", "-in", valid, "-out", outPath); code != 8 {
		t.Errorf("expired -timeout: exit %d, want 8\n%s", code, out)
	}
	if code, out := exitCodeOf(t, bin, "decompress", "-salvage", "-timeout", "1ns", "-in", damaged, "-out", outPath); code != 8 {
		t.Errorf("expired -timeout with -salvage: exit %d, want 8\n%s", code, out)
	}
}
