// Command tsplint is the TspSZ repo-specific static analyzer. It enforces
// the numeric-robustness and parallelism invariants the Go compiler cannot
// check: robust float comparisons near critical points, centralized
// concurrency, deterministic encoder kernels, checked codec I/O errors,
// no lossy narrowing in the error-bound derivation, no allocation sizes
// or slice indices taken from the untrusted compressed stream without a
// dominating bound check (an interprocedural taint analysis: per-function
// summaries over a module-wide call graph carry taint through calls,
// returns, and method dispatch, and report parameter-attributed findings
// at the call site), no writes to captured state inside parallel.For
// worker closures unless they are provably disjoint across workers
// (raceguard), pooled buffers released exactly once on every path and
// never used or escaping after release (poolguard), and closeable
// resources — files, tickers, CPU profiles — released on all paths, with
// no goroutines whose only exit is a bare channel operation (leakguard).
//
// Usage:
//
//	tsplint [flags] [packages]
//
// Packages follow the go tool's pattern syntax relative to the current
// directory ("./...", "./internal/cpsz", "tspsz/internal/core/..."). With
// no arguments, the whole module is analyzed.
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage or
// load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"tspsz/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("tsplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "shorthand for -format=json")
	format := fs.String("format", "text", "output format: text, json, or github (workflow ::error annotations)")
	listChecks := fs.Bool("list", false, "list available checks and exit")
	quietTypes := fs.Bool("q", false, "suppress type-check warnings on stderr")
	enabled := make(map[string]bool)
	for _, c := range analysis.AllChecks() {
		name := c.Name
		fs.Bool(name, true, "enable the "+name+" check (use -"+name+"=false to disable)")
	}
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fs.Visit(func(f *flag.Flag) {
		for _, c := range analysis.AllChecks() {
			if f.Name == c.Name {
				enabled[c.Name] = f.Value.String() == "true"
			}
		}
	})

	if *listChecks {
		for _, c := range analysis.AllChecks() {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, firstLine(c.Doc))
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "tsplint:", err)
		return 2
	}
	pkgs, err := analysis.LoadModule(cwd, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "tsplint:", err)
		return 2
	}
	if !*quietTypes {
		for _, p := range pkgs {
			for _, terr := range p.TypeErrors {
				fmt.Fprintf(stderr, "tsplint: warning: %s: %v\n", p.ImportPath, terr)
			}
		}
	}

	if *jsonOut {
		*format = "json"
	}
	findings := analysis.Run(pkgs, analysis.Options{Enabled: enabled})
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "tsplint:", err)
			return 2
		}
	case "github":
		// GitHub Actions workflow commands: one ::error annotation per
		// finding, surfaced inline on the PR diff by the runner.
		for _, f := range findings {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::%s\n",
				ghEscapeProp(f.File), f.Line, f.Col,
				ghEscapeData(fmt.Sprintf("[%s] %s", f.Check, f.Message)))
		}
	case "text":
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	default:
		fmt.Fprintf(stderr, "tsplint: unknown -format %q (want text, json, or github)\n", *format)
		return 2
	}
	if len(findings) > 0 {
		if *format == "text" {
			fmt.Fprintf(stdout, "tsplint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// ghEscapeData escapes the message part of a workflow command.
func ghEscapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// ghEscapeProp escapes a workflow-command property value, which
// additionally reserves ':' and ','.
func ghEscapeProp(s string) string {
	s = ghEscapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}

func usage(fs *flag.FlagSet, stderr *os.File) {
	fmt.Fprint(stderr, `tsplint — TspSZ repo-specific static analyzer

usage: tsplint [flags] [packages]

Packages use go-tool patterns relative to the current directory
("./...", "./internal/cpsz"); the default is the whole module.
Exit status: 0 clean, 1 findings, 2 usage/load error.

Checks (each -<check>=false disables it):

`)
	for _, c := range analysis.AllChecks() {
		fmt.Fprintf(stderr, "  %s\n", c.Name)
		for _, line := range strings.Split(c.Doc, "\n") {
			fmt.Fprintf(stderr, "      %s\n", line)
		}
		fmt.Fprintln(stderr)
	}
	fmt.Fprint(stderr, `Suppressing a single finding:

  Place the directive on the flagged line or on the line directly above:

      if x == header.Sentinel { // lint is appeased by the next form only
      if x == header.Sentinel { //lint:allow floatcmp exact sentinel written by encoder

      //lint:allow determinism order is sorted two lines below
      for k := range m {

  Several checks can be allowed at once: //lint:allow floatcmp,narrowing <reason>.
  There is deliberately no file- or package-level suppression: every
  exemption is local and carries its own justification.

Flags:

`)
	fs.PrintDefaults()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
