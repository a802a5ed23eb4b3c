package analysis

// poolguard verifies arena ownership: every pooled acquisition
// (sync.Pool.Get directly, or a module acquirer like getScratch /
// getChunkBuf whose summary says it hands out pooled storage) must be
// released exactly once on every exit path, never touched after
// release, and never leave the function except through an ownership
// transfer the interprocedural summaries can vouch for.
//
// The one sanctioned cross-goroutine hand-off — a parallel worker
// depositing its pooled payload into a captured per-worker slot, with
// the write-out step re-pooling every slot — is modeled as a deposit
// obligation: the store is allowed, and the enclosing function must
// contain a reachable release rooted at the captured container (either
// a direct Pool.Put or a call to a callee summarized as releasing that
// parameter, like cpsz's writeChunkPayloads).

import (
	"fmt"
	"go/ast"
	"go/types"
)

func poolguardCheck() *Check {
	return &Check{
		Name: "poolguard",
		Doc: `Verifies pooled-buffer lifetimes: every sync.Pool.Get / arena acquire
(getScratch, getChunkBuf, any module function summarized as an acquirer)
is released exactly once on every exit path, never used after release,
never double-released, and never escapes into a return value, global,
struct field, channel, or goroutine — unless ownership transfers to a
callee whose summary releases or re-pools it, or the value is deposited
into a captured container that a later call (e.g. the chunk write-out)
provably re-pools.`,
		Run: func(p *Package) []Finding {
			return runLifetime(p, &lifeSpec{check: "poolguard", classes: classPool})
		},
	}
}

// lifeDeposit is one sanctioned store of a live pooled value into a
// container captured from the enclosing function, awaiting discharge.
type lifeDeposit struct {
	r    *lifeRes
	capt types.Object
	site ast.Node
}

// runLifetime drives the lifetime engine over every function body and
// every nested function literal of the package.
func runLifetime(p *Package, spec *lifeSpec) []Finding {
	ip := p.mod.interContext()
	var out []Finding
	emit := func(n ast.Node, format string, args ...any) {
		f := p.finding(spec.check, n, fmt.Sprintf(format, args...))
		for _, prev := range out {
			if prev.File == f.File && prev.Line == f.Line && prev.Col == f.Col && prev.Message == f.Message {
				return
			}
		}
		out = append(out, f)
	}
	for _, file := range p.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			var ownRes *resEffect
			if fn, ok := p.Info.Defs[decl.Name].(*types.Func); ok {
				if node := ip.nodeFor(fn); node != nil {
					ownRes = node.res
				}
			}
			var deposits []lifeDeposit
			onDeposit := func(r *lifeRes, capt types.Object, site ast.Node) {
				for _, dep := range deposits {
					if dep.r == r && dep.capt == capt {
						return
					}
				}
				deposits = append(deposits, lifeDeposit{r: r, capt: capt, site: site})
			}
			run := func(fnNode ast.Node, body *ast.BlockStmt, enclosing *ast.FuncDecl, own *resEffect) {
				e := &lifeEngine{
					p:         p,
					ip:        ip,
					spec:      spec,
					fnNode:    fnNode,
					body:      body,
					enclosing: enclosing,
					emit:      emit,
					onDeposit: onDeposit,
					ownRes:    own,
				}
				e.run()
			}
			run(decl, decl.Body, nil, ownRes)
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					run(lit, lit.Body, decl, nil)
				}
				return true
			})
			for _, dep := range deposits {
				if depositDischarged(p, ip, decl, dep.capt, spec) {
					continue
				}
				emit(dep.site, "pooled value from %s (line %d) deposited into captured %s, but nothing in %s releases %s back to its pool",
					dep.r.what, p.Fset.Position(dep.r.call.Pos()).Line, dep.capt.Name(), decl.Name.Name, dep.capt.Name())
			}
		}
	}
	return out
}

// depositDischarged reports whether the enclosing declaration contains a
// release rooted at the captured container: a Pool.Put of an element, or
// a call passing the container to a callee whose summary releases that
// parameter.
func depositDischarged(p *Package, ip *interCtx, decl *ast.FuncDecl, capt types.Object, spec *lifeSpec) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		targets, _ := releaseTargets(p.Info, ip, call)
		for _, t := range targets {
			if t.classes&spec.classes != 0 && rootObj(p.Info, t.expr) == capt {
				found = true
			}
		}
		return true
	})
	return found
}
