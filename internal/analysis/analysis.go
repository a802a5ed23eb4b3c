// Package analysis implements tsplint, the repo-specific static analyzer
// that enforces TspSZ's numeric-robustness and parallelism invariants.
// It is built only on the standard library (go/parser, go/ast, go/types,
// go/importer) and walks every package of the module.
//
// Each invariant is a distinct, individually suppressible check:
//
//	floatcmp    — no ==/!= (or switch) on floating-point operands outside
//	              the designated robust-predicate files
//	parallelism — no go statements, sync.WaitGroup use, or channel
//	              construction outside internal/parallel
//	determinism — no time.Now, math/rand, or map-range iteration inside
//	              the encoder kernels
//	ioerrors    — no dropped error returns from io.Writer / binary.Write
//	              calls in the codec format paths
//	narrowing   — no float32(...) conversions of float64 expressions in
//	              the error-bound derivation
//	allocguard  — no allocation (make, Buffer.Grow, LimitReader-less
//	              inflate, sized field allocators) whose size derives
//	              from the untrusted stream without a dominating bound
//	indexguard  — no slice/array index or slice bound that derives from
//	              the untrusted stream without a dominating range check
//	raceguard   — no write to captured state inside a parallel.For
//	              worker closure unless it is provably disjoint across
//	              workers (index derived from the worker's iteration
//	              index, or a worker-private view/allocation)
//	poolguard   — every sync.Pool / arena acquisition is released exactly
//	              once on every exit path, never used after release, and
//	              never escapes except by transfer to a callee whose
//	              summary releases or re-pools it
//	leakguard   — goroutines whose only exit is a naked channel operation
//	              with no close/cancel path, and io.Closer / time.Ticker /
//	              pprof acquisitions lacking release on all paths
//
// allocguard and indexguard are dataflow checks: a per-function CFG
// (cfg.go) plus a forward taint analysis (taint.go) tracks values
// decoded from the stream to allocation and indexing sinks, treating
// dominating comparisons against trusted quantities as sanitizers.
// Since PR6 the taint engine is interprocedural: a module-wide call
// graph (callgraph.go) and per-function taint summaries (summary.go),
// computed to a fixpoint over strongly connected components, let taint
// flow through calls, returns, and method dispatch on concrete types,
// and let in-callee validation sanitize caller-side values.
//
// poolguard and leakguard are built on a second dataflow engine
// (lifetime.go): a path-sensitive resource-lifetime must-analysis over
// the same CFG, fed by per-function acquire/release/alias effect
// summaries (resource.go) computed in the same SCC fixpoint, so
// ownership can transfer through calls (a callee that puts a buffer back
// in its pool discharges the caller's obligation).
//
// A finding on a specific line can be suppressed with a trailing or
// immediately preceding comment of the form
//
//	//lint:allow <check>[,<check>...] [reason]
//
// The reason is free text and should say why the flagged construct is
// sound; blanket (file- or package-level) suppression is intentionally
// not supported. A directive naming an unknown check is itself reported
// (as check "allow") rather than silently accepted, so typos cannot
// mask real findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"` // module-relative path
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Check is one independently toggleable invariant.
type Check struct {
	Name string
	Doc  string
	Run  func(p *Package) []Finding
}

// AllChecks returns the full check set in stable order.
func AllChecks() []*Check {
	return []*Check{
		floatcmpCheck(),
		parallelismCheck(),
		determinismCheck(),
		ioerrorsCheck(),
		narrowingCheck(),
		allocguardCheck(),
		indexguardCheck(),
		raceguardCheck(),
		poolguardCheck(),
		leakguardCheck(),
	}
}

// CheckNames returns the names of all checks in stable order.
func CheckNames() []string {
	var names []string
	for _, c := range AllChecks() {
		names = append(names, c.Name)
	}
	return names
}

// Options selects which checks run.
type Options struct {
	// Enabled maps check name -> on/off. A nil map enables every check;
	// a missing key defaults to on.
	Enabled map[string]bool
}

func (o Options) enabled(name string) bool {
	if o.Enabled == nil {
		return true
	}
	on, ok := o.Enabled[name]
	return !ok || on
}

// Run executes the enabled checks over the loaded packages and returns
// the surviving (non-suppressed) findings sorted by position.
func Run(pkgs []*Package, opts Options) []Finding {
	var out []Finding
	for _, p := range pkgs {
		sup, bad := collectSuppressions(p)
		// Malformed directives are reported unconditionally: a typoed
		// check name silently masking findings is worse than any noise.
		out = append(out, bad...)
		for _, c := range AllChecks() {
			if !opts.enabled(c.Name) {
				continue
			}
			for _, f := range c.Run(p) {
				if !sup.allows(c.Name, f.File, f.Line) {
					out = append(out, f)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		if out[i].Check != out[j].Check {
			return out[i].Check < out[j].Check
		}
		// Full tiebreak keeps text and -json output byte-identical run
		// to run even when one position carries two findings of one
		// check (e.g. two summary-attributed sinks at one call site).
		return out[i].Message < out[j].Message
	})
	return out
}

// finding builds a Finding for a node within a package.
func (p *Package) finding(check string, n ast.Node, msg string) Finding {
	pos := p.Fset.Position(n.Pos())
	return Finding{
		Check:   check,
		File:    p.relFile(pos),
		Line:    pos.Line,
		Col:     pos.Column,
		Message: msg,
	}
}

// relFile converts an absolute position filename to a module-relative path.
func (p *Package) relFile(pos token.Position) string {
	return p.mod.rel(pos.Filename)
}
