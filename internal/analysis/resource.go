package analysis

// resource.go computes per-function resource-lifetime effects over the
// call graph of callgraph.go — the interprocedural half of the poolguard
// and leakguard checks (lifetime.go holds the intraprocedural engine).
//
// A resource effect answers three questions about a declared function:
//
//   - acquires: which results carry a freshly acquired resource the
//     caller now owns — getScratch() returning a pooled *scratch,
//     getChunkBuf() returning a pooled buffer, a wrapper returning an
//     os.Open'd file.
//   - releases: which parameters (receiver first, matching
//     funcNode.params) the function releases on some path — putScratch,
//     putChunkBuf (through &b), writeChunkPayloads re-pooling every
//     chunks[i].payload. A caller passing a resource to such a parameter
//     has transferred ownership.
//   - recvAlias: whether a method returns slice/pointer views into its
//     receiver's memory — the scratch.buf / scratch.dirArrays accessor
//     shape — so the caller's view inherits the receiver's lifetime.
//
// Effects are booleans that only ever switch on, so iterating each
// strongly connected component to a fixpoint (in the same reverse-
// topological order computeSummaries already walks) terminates. The
// computation is deliberately may-analysis shaped: "releases on some
// path" is credited as a release, which keeps callers quiet about
// helpers that re-pool conditionally; the per-path must-analysis lives
// in the caller's own engine run.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// resClass distinguishes the two resource families tsplint tracks.
type resClass uint8

const (
	classPool   resClass = 1 << iota // sync.Pool-backed arena values (poolguard)
	classCloser                      // io.Closer / time.Ticker / pprof (leakguard)
)

// resEffect is one function's resource-lifetime summary.
type resEffect struct {
	acquires  []resClass // per result: classes the result carries freshly acquired
	releases  []resClass // per param (receiver first): classes released on some path
	recvAlias bool       // a slice/pointer result aliases the receiver's memory
}

func (e *resEffect) equal(o *resEffect) bool {
	if o == nil || e.recvAlias != o.recvAlias ||
		len(e.acquires) != len(o.acquires) || len(e.releases) != len(o.releases) {
		return false
	}
	for i := range e.acquires {
		if e.acquires[i] != o.acquires[i] {
			return false
		}
	}
	for i := range e.releases {
		if e.releases[i] != o.releases[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Primitive classification

// isPoolMethod reports whether call invokes (*sync.Pool).<name>.
func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Name() != name || calleePkgPath(fn) != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// closerAcq describes one external Closer-family acquisition.
type closerAcq struct {
	result  int    // result index carrying the resource; -1 for ambient (pprof)
	what    string // diagnostic name, e.g. "os.Open"
	release string // expected release method, e.g. "Close"
}

// closerAcquireOf classifies external acquisitions leakguard tracks:
// files, decompressor readers, tickers, and the ambient CPU profile.
// Writers (flate/gzip/bufio NewWriter) are deliberately excluded — their
// Close is a data-integrity obligation owned by the ioerrors check, not
// a leak.
func closerAcquireOf(info *types.Info, call *ast.CallExpr) *closerAcq {
	fn := calleeOf(info, call)
	if fn == nil {
		return nil
	}
	pkg, name := calleePkgPath(fn), fn.Name()
	switch pkg {
	case "os":
		switch name {
		case "Open", "Create", "OpenFile":
			return &closerAcq{result: 0, what: "os." + name, release: "Close"}
		}
	case "compress/flate":
		if name == "NewReader" || name == "NewReaderDict" {
			return &closerAcq{result: 0, what: "flate." + name, release: "Close"}
		}
	case "compress/gzip", "compress/zlib":
		if name == "NewReader" {
			return &closerAcq{result: 0, what: pkg[len("compress/"):] + ".NewReader", release: "Close"}
		}
	case "time":
		if name == "NewTicker" {
			return &closerAcq{result: 0, what: "time.NewTicker", release: "Stop"}
		}
	case "runtime/pprof":
		if name == "StartCPUProfile" {
			return &closerAcq{result: -1, what: "pprof.StartCPUProfile", release: "pprof.StopCPUProfile"}
		}
	case "net":
		if name == "Listen" || name == "Dial" {
			return &closerAcq{result: 0, what: "net." + name, release: "Close"}
		}
	}
	return nil
}

// argParam pairs a call argument expression with the callee parameter
// index it lands on (receiver first, matching funcNode.params).
type argParam struct {
	expr  ast.Expr
	param int
}

// calleeArgs resolves call to a module funcNode and maps its arguments
// (including a method receiver) onto parameter indices. The variadic
// tail collapses onto the last parameter.
func calleeArgs(info *types.Info, ip *interCtx, call *ast.CallExpr) (*funcNode, []argParam) {
	node := ip.nodeFor(calleeOf(info, call))
	if node == nil || len(node.params) == 0 {
		return nil, nil
	}
	var out []argParam
	off := 0
	if sig, ok := node.fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, argParam{sel.X, 0})
		}
		off = 1
	}
	for i, a := range call.Args {
		pi := i + off
		if pi >= len(node.params) {
			if !node.variadic {
				break
			}
			pi = len(node.params) - 1
		}
		out = append(out, argParam{a, pi})
	}
	return node, out
}

// releaseTarget is one expression a call releases.
type releaseTarget struct {
	expr    ast.Expr
	classes resClass
}

// releaseTargets lists the expressions call releases and, separately,
// any ambient class it releases (pprof.StopCPUProfile has no argument).
func releaseTargets(info *types.Info, ip *interCtx, call *ast.CallExpr) (targets []releaseTarget, ambient resClass) {
	if isPoolMethod(info, call, "Put") && len(call.Args) == 1 {
		return []releaseTarget{{call.Args[0], classPool}}, 0
	}
	fn := calleeOf(info, call)
	if fn == nil {
		return nil, 0
	}
	if calleePkgPath(fn) == "runtime/pprof" && fn.Name() == "StopCPUProfile" {
		return nil, classCloser
	}
	if (fn.Name() == "Close" || fn.Name() == "Stop") && len(call.Args) == 0 {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				return []releaseTarget{{sel.X, classCloser}}, 0
			}
		}
	}
	if node, args := calleeArgs(info, ip, call); node != nil && node.res != nil {
		for _, ap := range args {
			if cls := node.res.releases[ap.param]; cls != 0 {
				targets = append(targets, releaseTarget{ap.expr, cls})
			}
		}
	}
	return targets, 0
}

// rootObj walks an expression to its base identifier's object through
// selectors, indexing, slicing, dereference, and address-of —
// outs[i].payload roots at outs, (*p)[:0] at p. Nil when the expression
// has no simple variable root (a call, a literal).
func rootObj(info *types.Info, x ast.Expr) types.Object {
	for {
		switch t := x.(type) {
		case *ast.ParenExpr:
			x = t.X
		case *ast.SelectorExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.SliceExpr:
			x = t.X
		case *ast.StarExpr:
			x = t.X
		case *ast.TypeAssertExpr:
			x = t.X
		case *ast.UnaryExpr:
			if t.Op != token.AND {
				return nil
			}
			x = t.X
		case *ast.Ident:
			if o := info.Defs[t]; o != nil {
				return o
			}
			return info.Uses[t]
		default:
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// Per-function effect computation

// acquireClassesOf returns the per-result acquire classes of call under
// the current summaries: pool Get, the external closer table, or a
// module callee's computed effect.
func acquireClassesOf(info *types.Info, ip *interCtx, call *ast.CallExpr) []resClass {
	if isPoolMethod(info, call, "Get") {
		return []resClass{classPool}
	}
	if ca := closerAcquireOf(info, call); ca != nil && ca.result >= 0 {
		out := make([]resClass, ca.result+1)
		out[ca.result] = classCloser
		return out
	}
	if node := ip.nodeFor(calleeOf(info, call)); node != nil && node.res != nil {
		return node.res.acquires
	}
	return nil
}

// updateResEffect recomputes node's resource effect under the current
// effects of its callees and reports whether it changed.
func updateResEffect(node *funcNode, ip *interCtx) bool {
	info := node.pkg.Info
	sig, _ := node.fn.Type().(*types.Signature)
	nres := 0
	if sig != nil {
		nres = sig.Results().Len()
	}
	eff := &resEffect{
		acquires: make([]resClass, nres),
		releases: make([]resClass, len(node.params)),
	}

	paramIdx := make(map[types.Object]int, len(node.params))
	for i, pv := range node.params {
		paramIdx[pv] = i
	}

	// Flow-insensitive pass: locals holding a fresh acquisition, releases
	// of parameters, and the return statements.
	acqLocal := make(map[types.Object]resClass)
	var rets []*ast.ReturnStmt
	inspectSkippingFuncLits(node.decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				cls := acquiredClassOfRHS(info, ip, n, i)
				if cls != 0 {
					acqLocal[obj] |= cls
				}
			}
		case *ast.CallExpr:
			targets, _ := releaseTargets(info, ip, n)
			for _, tgt := range targets {
				if i, ok := paramIdx[rootObj(info, tgt.expr)]; ok {
					eff.releases[i] |= tgt.classes
				}
			}
		case *ast.ReturnStmt:
			rets = append(rets, n)
		}
	})

	for _, ret := range rets {
		switch {
		case len(ret.Results) == nres:
			for j, x := range ret.Results {
				cls := returnedAcquireClass(info, ip, x, acqLocal)
				// A closer obligation only propagates to callers when the
				// returned type still carries a release: returning a view
				// that cannot Close/Stop the resource (a ticker's C
				// channel) is an escape at this function, not a transfer.
				if cls&classCloser != 0 && !hasReleaseMethod(resultType(sig, j)) {
					cls &^= classCloser
				}
				eff.acquires[j] |= cls
			}
		case len(ret.Results) == 1 && nres > 1:
			// return f(): pass the callee's per-result acquisitions through.
			if call, ok := unparen(ret.Results[0]).(*ast.CallExpr); ok {
				for j, cls := range acquireClassesOf(info, ip, call) {
					if j < nres {
						eff.acquires[j] |= cls
					}
				}
			}
		}
		// recvAlias: a slice/pointer result rooted at the receiver.
		if node.decl.Recv != nil && len(node.params) > 0 && len(ret.Results) == nres {
			for j, x := range ret.Results {
				if !isRefShaped(resultType(sig, j)) {
					continue
				}
				if rootObj(info, x) == node.params[0] {
					eff.recvAlias = true
				}
			}
		}
	}

	if node.res != nil && eff.equal(node.res) {
		return false
	}
	node.res = eff
	return true
}

// acquiredClassOfRHS classifies what assignment n binds into Lhs[i]:
// the class of a fresh acquisition, or 0.
func acquiredClassOfRHS(info *types.Info, ip *interCtx, n *ast.AssignStmt, i int) resClass {
	var rhs ast.Expr
	switch {
	case len(n.Lhs) == len(n.Rhs):
		rhs = n.Rhs[i]
	case len(n.Rhs) == 1:
		rhs = n.Rhs[0]
	default:
		return 0
	}
	x := unparen(rhs)
	if ta, ok := x.(*ast.TypeAssertExpr); ok {
		// p, ok := pool.Get().(*T): the asserted value is Lhs[0].
		if len(n.Lhs) == len(n.Rhs) || i == 0 {
			x = unparen(ta.X)
		} else {
			return 0
		}
	}
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return 0
	}
	classes := acquireClassesOf(info, ip, call)
	ri := 0
	if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
		ri = i
	}
	if ri < len(classes) {
		return classes[ri]
	}
	return 0
}

// returnedAcquireClass classifies one returned expression: a direct
// acquiring call, or a view rooted at a local that holds an acquisition.
func returnedAcquireClass(info *types.Info, ip *interCtx, x ast.Expr, acqLocal map[types.Object]resClass) resClass {
	ex := unparen(x)
	if ta, ok := ex.(*ast.TypeAssertExpr); ok {
		ex = unparen(ta.X)
	}
	if call, ok := ex.(*ast.CallExpr); ok {
		if classes := acquireClassesOf(info, ip, call); len(classes) > 0 {
			return classes[0]
		}
		return 0
	}
	return acqLocal[rootObj(info, x)]
}

// hasReleaseMethod reports whether t (or its pointer form) has a Close
// or Stop method, i.e. whether a holder of a t can release it.
func hasReleaseMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, name := range []string{"Close", "Stop"} {
		if m, _, _ := types.LookupFieldOrMethod(t, true, nil, name); m != nil {
			if _, ok := m.(*types.Func); ok {
				return true
			}
		}
	}
	return false
}

func resultType(sig *types.Signature, i int) types.Type {
	if sig == nil || i >= sig.Results().Len() {
		return nil
	}
	return sig.Results().At(i).Type()
}

// isRefShaped reports whether values of t can alias other memory in the
// sense the lifetime engine tracks: slices and pointers.
func isRefShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer:
		return true
	}
	return false
}

// computeResEffects iterates one SCC's resource effects to a fixpoint.
// Called from computeSummaries so the reverse-topological evaluation
// order (callees first) is shared with the taint summaries.
func computeResEffects(comp []*funcNode, ip *interCtx) {
	for round := 0; round < 2+2*len(comp); round++ {
		changed := false
		for _, n := range comp {
			if updateResEffect(n, ip) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}
