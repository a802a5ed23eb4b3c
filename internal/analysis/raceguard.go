package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// raceguard inspects every worker closure handed to internal/parallel's
// loop dispatchers, For and Wavefront, and flags writes to captured state
// that are not provably disjoint across workers.
//
// The analysis is a must-analysis over the closure body:
//
//   - The closure's own parameters are "derived": For's iteration index i,
//     and both of Wavefront's cell coordinates (i, j), since two cells that
//     run at once are incomparable and so differ in i and in j. So is a
//     captured value indexed by a derived one (rs[i][0], the lo bound of
//     the worker's parallel.Ranges extent). A local is derived when every
//     assignment reaching it is an arithmetic combination containing at
//     least one derived operand and no unknown variable (loop counters
//     initialised from lo and stepped by a constant stay derived; range
//     keys do not — `for k := range x` yields the same k in every worker).
//   - A local holds "private" memory when every assignment gives it fresh
//     storage (make, composite literal, append to private, a call result)
//     or a derived view of captured storage: captured[lo:hi] with both
//     bounds derived, or captured[i] with i derived. Writes through
//     private memory cannot race.
//
// A write is then flagged when its target resolves to captured (or
// package-level) state and disjointness cannot be proved: element writes
// need at least one derived index in the chain, map writes are never safe
// concurrently, and direct assignment to a captured scalar, error, or
// slice header (including x = append(x, ...)) is always a race. Method
// calls on captured values are permitted — that is how sync/atomic,
// mutex-guarded aggregation, and obs collectors are used from workers.
// Passing a whole captured slice to a function that writes it is outside
// the model; slice the argument to the worker's extent instead.

func raceguardCheck() *Check {
	return &Check{
		Name: "raceguard",
		Doc: `Flags writes to captured variables inside worker closures passed to
parallel.For or parallel.Wavefront unless every write is provably disjoint
across workers: element writes must use an index derived from the worker's
iteration index or cell coordinates (or go through a private view like buf[lo:hi] over its
parallel.Ranges extent), map writes are never safe, and
captured scalar/error/slice-header mutation (counters, err = ...,
x = append(x, ...)) is always reported. Method calls on captured values
are allowed, so sync/atomic, mutexes, and obs collectors pass.`,
		Run: runRaceguard,
	}
}

func runRaceguard(p *Package) []Finding {
	var out []Finding
	// A write inside a nested worker that is unsafe along both dispatch
	// dimensions is found by both the outer and inner visits; keep one.
	seen := map[Finding]bool{}
	keep := func(fs []Finding) {
		for _, f := range fs {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	inspectFiles(p, func(f *ast.File, n ast.Node) bool {
		if lit := forWorker(p.Info, n); lit != nil {
			keep(analyzeWorker(p, lit))
		}
		return true
	})
	return out
}

// forWorker returns the worker closure of n when n is a call
// parallel.For(..., func(i int) error {...}) or
// parallel.Wavefront(..., func(i, j int) error {...}) and parallel
// resolves to an import of the internal/parallel package (of any module).
// Named worker functions are out of scope: their bodies are covered when
// they contain dispatcher calls of their own.
func forWorker(info *types.Info, n ast.Node) *ast.FuncLit {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "For" && sel.Sel.Name != "Wavefront" {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	if path := pn.Imported().Path(); path != "internal/parallel" && !strings.HasSuffix(path, "/internal/parallel") {
		return nil
	}
	lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit
}

// workerScan is the per-closure analysis state.
type workerScan struct {
	p   *Package
	lit *ast.FuncLit

	// derived: the variable's value is a function of the worker's range
	// parameters on every path (usable as a disjointness witness).
	derived map[types.Object]bool
	// private: the variable's memory is worker-private on every path
	// (fresh allocation or a derived view of captured storage).
	private map[types.Object]bool
	// neutral: range parameters of nested dispatcher workers. From this
	// worker's perspective they neither witness disjointness (every outer
	// worker runs the same inner index range) nor poison an expression
	// (they are not arbitrary unknowns): a nested write like
	// out[i*w+j] passes because i is derived here, and j's own dispatch
	// level is checked when the inner closure gets its own visit.
	neutral map[types.Object]bool

	findings []Finding
}

func analyzeWorker(p *Package, lit *ast.FuncLit) []Finding {
	w := &workerScan{
		p:       p,
		lit:     lit,
		derived: map[types.Object]bool{},
		private: map[types.Object]bool{},
		neutral: map[types.Object]bool{},
	}
	w.classifyLocals()
	w.scanWrites()
	return w.findings
}

// captured reports whether obj is declared outside the worker closure
// (an enclosing function's local, a parameter, or a package-level var).
func (w *workerScan) captured(obj types.Object) bool {
	if obj == nil {
		return false
	}
	return obj.Pos() < w.lit.Pos() || obj.Pos() > w.lit.End()
}

// innerWorkerLits returns the worker closures of dispatcher calls nested inside
// this worker's body.
func (w *workerScan) innerWorkerLits() map[*ast.FuncLit]bool {
	out := map[*ast.FuncLit]bool{}
	ast.Inspect(w.lit.Body, func(n ast.Node) bool {
		if inner := forWorker(w.p.Info, n); inner != nil {
			out[inner] = true
		}
		return true
	})
	return out
}

// inspectBody walks the closure body, including nested closures: their
// writes still execute on this worker's goroutine, so a nested write must
// be disjoint along this dispatch dimension too (the nested dispatcher's
// own dimension is judged in the inner closure's separate visit).
func (w *workerScan) inspectBody(fn func(n ast.Node) bool) {
	ast.Inspect(w.lit.Body, fn)
}

// assignRec is one value-producing binding of a local observed in the body.
type assignRec struct {
	obj types.Object
	// Exactly one of the following shapes:
	rhs      ast.Expr // x = rhs, x := rhs, x op= rhs-part (self folded in)
	selfStep bool     // x++ / x-- / x op= c: derivedness is preserved
	rangeVal ast.Expr // for _, x := range rangeVal (element binding)
	rangeKey bool     // for x := range ...: same sequence in every worker
	opaque   bool     // multi-value / unmodeled binding: call results etc.
}

// classifyLocals runs the optimistic demotion fixpoint over every
// variable declared inside the closure.
func (w *workerScan) classifyLocals() {
	// Worker range parameters are the derivation roots.
	if w.lit.Type.Params != nil {
		for _, fld := range w.lit.Type.Params.List {
			for _, name := range fld.Names {
				if obj := w.p.Info.Defs[name]; obj != nil {
					w.derived[obj] = true
					w.private[obj] = true
				}
			}
		}
	}

	var recs []assignRec
	record := func(obj types.Object, r assignRec) {
		if obj == nil || w.captured(obj) {
			return
		}
		r.obj = obj
		recs = append(recs, r)
	}
	objOf := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := w.p.Info.Defs[id]; obj != nil {
			return obj
		}
		return w.p.Info.Uses[id]
	}

	innerWorkers := w.innerWorkerLits()
	for inner := range innerWorkers {
		if inner.Type.Params == nil {
			continue
		}
		for _, fld := range inner.Type.Params.List {
			for _, name := range fld.Names {
				if obj := w.p.Info.Defs[name]; obj != nil {
					w.neutral[obj] = true
				}
			}
		}
	}

	locals := map[types.Object]bool{}
	w.inspectBody(func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.Ident:
			if obj := w.p.Info.Defs[s]; obj != nil {
				if v, ok := obj.(*types.Var); ok && !w.derived[obj] && !w.neutral[obj] {
					locals[v] = true
				}
			}
		case *ast.FuncLit:
			if s != w.lit && !innerWorkers[s] {
				// Parameters of nested (non-dispatcher) closures carry
				// unknown values: a callback may be invoked with anything.
				if s.Type.Params != nil {
					for _, fld := range s.Type.Params.List {
						for _, name := range fld.Names {
							if obj := w.p.Info.Defs[name]; obj != nil {
								record(obj, assignRec{opaque: true})
							}
						}
					}
				}
			}
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					obj := objOf(lhs)
					if obj == nil {
						continue
					}
					if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
						record(obj, assignRec{rhs: s.Rhs[i]})
					} else {
						// x op= e: derived survives iff e is free of
						// unknowns (mirrors the binary-expr rule).
						record(obj, assignRec{rhs: s.Rhs[i], selfStep: true})
					}
				}
			} else {
				// Multi-value: x, err := f(). Call results are fresh
				// memory by Go ownership convention, but not derived.
				for _, lhs := range s.Lhs {
					if obj := objOf(lhs); obj != nil {
						record(obj, assignRec{opaque: true})
					}
				}
			}
		case *ast.IncDecStmt:
			if obj := objOf(s.X); obj != nil {
				record(obj, assignRec{selfStep: true})
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				obj := w.p.Info.Defs[name]
				if obj == nil {
					continue
				}
				switch {
				case len(s.Values) == len(s.Names):
					record(obj, assignRec{rhs: s.Values[i]})
				case len(s.Values) == 0:
					// Zero value: identical in every worker, private.
					record(obj, assignRec{opaque: true})
				default:
					record(obj, assignRec{opaque: true})
				}
			}
		case *ast.RangeStmt:
			if s.Key != nil {
				if obj := objOf(s.Key); obj != nil {
					record(obj, assignRec{rangeKey: true})
				}
			}
			if s.Value != nil {
				if obj := objOf(s.Value); obj != nil {
					record(obj, assignRec{rangeVal: s.X})
				}
			}
		}
		return true
	})

	// Optimistic start: every local is derived and private until an
	// assignment proves otherwise.
	for obj := range locals {
		w.derived[obj] = true
		w.private[obj] = true
	}

	for round := 0; round < len(recs)+2; round++ {
		changed := false
		for _, r := range recs {
			d, priv := w.classifyRHS(r)
			if w.derived[r.obj] && !d {
				w.derived[r.obj] = false
				changed = true
			}
			if w.private[r.obj] && !priv {
				w.private[r.obj] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func (w *workerScan) classifyRHS(r assignRec) (derived, private bool) {
	switch {
	case r.opaque:
		// Call results own their memory; their values are unknown.
		return false, true
	case r.rangeKey:
		return false, true
	case r.rangeVal != nil:
		// The element binding copies scalars but aliases element memory
		// for slice/map/pointer element types.
		return false, w.memPrivate(r.rangeVal)
	case r.selfStep && r.rhs == nil:
		// x++ / x--: both properties are preserved.
		return w.derived[r.obj], w.private[r.obj]
	case r.selfStep:
		d, poison := w.derivedParts(r.rhs)
		_ = d
		return w.derived[r.obj] && !poison, w.private[r.obj]
	default:
		return w.derivedIdx(r.rhs), w.memPrivate(r.rhs)
	}
}

// derivedIdx reports whether e is provably a function of the worker's
// range parameters: at least one derived leaf, and no unknown leaf.
func (w *workerScan) derivedIdx(e ast.Expr) bool {
	d, poison := w.derivedParts(e)
	return d && !poison
}

func (w *workerScan) derivedParts(e ast.Expr) (derived, poison bool) {
	switch x := e.(type) {
	case *ast.Ident:
		obj := w.p.Info.Uses[x]
		if obj == nil {
			obj = w.p.Info.Defs[x]
		}
		switch o := obj.(type) {
		case *types.Const, *types.Nil:
			return false, false
		case *types.Var:
			if w.derived[o] {
				return true, false
			}
			if w.captured(o) || w.neutral[o] {
				// A captured value is the same in every worker, and a
				// nested worker's range parameter is judged at its own
				// dispatch level: neither distinguishes this worker's
				// extents, and neither poisons.
				return false, false
			}
			return false, true
		default:
			return false, true
		}
	case *ast.BasicLit:
		return false, false
	case *ast.ParenExpr:
		return w.derivedParts(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND || x.Op == token.ADD || x.Op == token.SUB || x.Op == token.XOR {
			return w.derivedParts(x.X)
		}
		return false, true
	case *ast.BinaryExpr:
		ld, lp := w.derivedParts(x.X)
		rd, rp := w.derivedParts(x.Y)
		return ld || rd, lp || rp
	case *ast.IndexExpr:
		// captured[i] with i derived is a per-worker constant
		// (ranges[i][0] is the canonical shape).
		bd, bp := w.derivedParts(x.X)
		id, ip := w.derivedParts(x.Index)
		if bp || ip {
			return false, true
		}
		return bd || id, false
	case *ast.SelectorExpr:
		// Field read: inherits the base's derivedness (rg.lo where
		// rg := ranges[i]); a plain pkg.Const selector is neutral.
		if obj := w.p.Info.Uses[x.Sel]; obj != nil {
			if _, isConst := obj.(*types.Const); isConst {
				return false, false
			}
		}
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := w.p.Info.Uses[id].(*types.PkgName); isPkg {
				return false, true
			}
		}
		return w.derivedParts(x.X)
	case *ast.CallExpr:
		switch fn := calleeBuiltin(w.p.Info, x); fn {
		case "len", "cap":
			// Lengths are worker-independent facts about the operand.
			_, p := w.derivedParts(x.Args[0])
			return false, p
		case "min", "max":
			var anyD, anyP bool
			for _, a := range x.Args {
				d, p := w.derivedParts(a)
				anyD = anyD || d
				anyP = anyP || p
			}
			return anyD, anyP
		}
		// Type conversions are transparent.
		if tv, ok := w.p.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return w.derivedParts(x.Args[0])
		}
		return false, true
	default:
		return false, true
	}
}

// memPrivate reports whether e denotes worker-private memory: a fresh
// allocation, a call result, or a derived view of captured storage.
func (w *workerScan) memPrivate(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := w.p.Info.Uses[x]
		if obj == nil {
			obj = w.p.Info.Defs[x]
		}
		switch o := obj.(type) {
		case *types.Const, *types.Nil:
			return true
		case *types.Var:
			if w.captured(o) {
				return false
			}
			return w.private[o]
		default:
			return false
		}
	case *ast.BasicLit:
		return true
	case *ast.CompositeLit:
		return true
	case *ast.ParenExpr:
		return w.memPrivate(x.X)
	case *ast.StarExpr:
		return w.memPrivate(x.X)
	case *ast.UnaryExpr:
		return w.memPrivate(x.X)
	case *ast.SliceExpr:
		// captured[lo:hi] with both bounds derived is a disjoint view.
		if x.Low != nil && x.High != nil &&
			w.derivedIdx(x.Low) && w.derivedIdx(x.High) {
			return true
		}
		return w.memPrivate(x.X)
	case *ast.IndexExpr:
		// captured[i] with i derived selects a per-worker element
		// (a private row of a slice-of-slices).
		if w.derivedIdx(x.Index) {
			return true
		}
		return w.memPrivate(x.X)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := w.p.Info.Uses[id].(*types.PkgName); isPkg {
				return false
			}
		}
		return w.memPrivate(x.X)
	case *ast.CallExpr:
		switch calleeBuiltin(w.p.Info, x) {
		case "append":
			return len(x.Args) > 0 && w.memPrivate(x.Args[0])
		case "make", "new":
			return true
		}
		if tv, ok := w.p.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return w.memPrivate(x.Args[0])
		}
		// Non-builtin call results own their memory by convention.
		return true
	case *ast.BinaryExpr:
		// Arithmetic yields scalar values, never shared storage.
		return true
	default:
		return false
	}
}

// calleeBuiltin returns the name of the universe builtin called by e,
// or "".
func calleeBuiltin(info *types.Info, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// scanWrites walks the body flagging every write whose target is shared.
func (w *workerScan) scanWrites() {
	w.inspectBody(func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Lhs) == len(s.Rhs) {
					rhs = s.Rhs[i]
				}
				w.checkWrite(lhs, rhs, s.Tok)
			}
		case *ast.IncDecStmt:
			w.checkWrite(s.X, nil, s.Tok)
		}
		return true
	})
}

func (w *workerScan) checkWrite(lhs, rhs ast.Expr, tok token.Token) {
	lhs = ast.Unparen(lhs)
	switch x := lhs.(type) {
	case *ast.Ident:
		obj, _ := w.p.Info.ObjectOf(x).(*types.Var)
		if obj == nil || !w.captured(obj) {
			return
		}
		w.flagVarWrite(x, obj, rhs, tok)
	case *ast.IndexExpr:
		w.checkIndexedWrite(x)
	case *ast.StarExpr:
		if !w.memPrivate(x.X) && !w.derivedIdx(x.X) {
			w.flag(lhs, "write through pointer %s to shared memory inside a parallel worker; derive the pointee from the worker's range (e.g. &buf[i]) or make it worker-private", exprText(x.X))
		}
	case *ast.SelectorExpr:
		if !w.memPrivate(x.X) {
			w.flag(lhs, "write to field %s of captured %s inside a parallel worker; all workers share this struct", x.Sel.Name, exprText(x.X))
		}
	}
}

// checkIndexedWrite handles x[i]... = v chains, including multi-dim
// chains and map writes.
func (w *workerScan) checkIndexedWrite(ix *ast.IndexExpr) {
	// Walk down the chain collecting index expressions; a map anywhere
	// in the chain makes the write unsafe regardless of key derivation.
	var indices []ast.Expr
	base := ast.Expr(ix)
	for {
		cur, ok := ast.Unparen(base).(*ast.IndexExpr)
		if !ok {
			break
		}
		if t := w.p.Info.TypeOf(cur.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				if w.memPrivate(cur.X) {
					return
				}
				w.flag(ix, "write to captured map %s inside a parallel worker; map access is not safe for concurrent use even with distinct keys", exprText(cur.X))
				return
			}
		}
		indices = append(indices, cur.Index)
		base = cur.X
	}
	if w.memPrivate(base) {
		return
	}
	for _, idx := range indices {
		if w.derivedIdx(idx) {
			return
		}
	}
	w.flag(ix, "write to shared %s at an index not derived from the worker's range parameters; extents may overlap across workers", exprText(base))
}

func (w *workerScan) flagVarWrite(id *ast.Ident, obj *types.Var, rhs ast.Expr, tok token.Token) {
	name := id.Name
	switch {
	case isAppendTo(w.p.Info, rhs, obj):
		w.flag(id, "append to captured slice %s inside a parallel worker mutates a shared slice header; give each worker a disjoint pre-sized extent instead", name)
	case isErrorVar(obj):
		w.flag(id, "write to captured error variable %s inside a parallel worker; return it from the worker, which parallel.For propagates, instead", name)
	case tok == token.INC || tok == token.DEC || isCompound(tok):
		w.flag(id, "non-atomic update of captured variable %s inside a parallel worker; use a per-range reduction (one result slot per parallel.Ranges extent) or sync/atomic", name)
	default:
		w.flag(id, "write to captured variable %s inside a parallel worker; workers race on the shared location", name)
	}
}

func isCompound(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN,
		token.REM_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN,
		token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
		return true
	}
	return false
}

func isErrorVar(obj *types.Var) bool {
	return types.Identical(obj.Type(), types.Universe.Lookup("error").Type())
}

// isAppendTo reports whether rhs is append(obj, ...).
func isAppendTo(info *types.Info, rhs ast.Expr, obj types.Object) bool {
	if rhs == nil {
		return false
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || calleeBuiltin(info, call) != "append" || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.ObjectOf(id) == obj
}

func (w *workerScan) flag(n ast.Node, format string, args ...any) {
	w.findings = append(w.findings, w.p.finding("raceguard", n, fmt.Sprintf(format, args...)))
}

// exprText renders a short display form of a write target's base.
func exprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	case *ast.CallExpr:
		return exprText(x.Fun) + "(...)"
	default:
		return "expression"
	}
}
