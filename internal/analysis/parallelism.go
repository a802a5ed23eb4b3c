package analysis

import (
	"go/ast"
)

// parallelDir is the one package allowed to create goroutines and the
// synchronization structures that coordinate them.
const parallelDir = "internal/parallel"

func parallelismCheck() *Check {
	return &Check{
		Name: "parallelism",
		Doc: `Flags go statements, sync.WaitGroup usage, and channel construction
(make(chan ...)) outside internal/parallel. TspSZ's bit-deterministic
archives depend on every concurrent loop flowing through the audited
dispatcher (parallel.For), whose work decomposition is deterministic for
a given worker count; ad-hoc goroutine fan-out is where nondeterminism
and data races enter. Centralizing concurrency is
also what makes the -race CI job meaningful: the dispatcher's tests
exercise the only goroutine-spawning code paths.`,
		Run: runParallelism,
	}
}

func runParallelism(p *Package) []Finding {
	if p.RelDir == parallelDir {
		return nil
	}
	var out []Finding
	inspectFiles(p, func(f *ast.File, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			out = append(out, p.finding("parallelism", n,
				"go statement outside internal/parallel; route concurrency through parallel.For"))
		case *ast.SelectorExpr:
			if pkgSelector(p.Info, n, "sync", "WaitGroup") {
				out = append(out, p.finding("parallelism", n,
					"sync.WaitGroup outside internal/parallel; the dispatcher owns goroutine lifecycle"))
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
				if _, isChan := n.Args[0].(*ast.ChanType); isChan {
					out = append(out, p.finding("parallelism", n,
						"channel construction outside internal/parallel; fan-out/fan-in belongs in the audited dispatcher"))
				}
			}
		}
		return true
	})
	return out
}
