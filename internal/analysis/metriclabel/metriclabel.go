// Package metriclabel guards the metrics registry against unbounded
// label cardinality.
//
// Every (name, labels) pair handed to metrics.Registry.Counter / Gauge /
// Histogram creates a new exported series that lives for the life of the
// process. A label value derived from a user ID, an err.Error() string,
// or arbitrary loop data therefore grows the registry — and every
// Prometheus scrape — without bound. metriclabel requires each label
// value to be provably drawn from a finite set:
//
//   - a compile-time constant (literal, named const, const expression),
//   - a range variable iterating a composite literal of constants, or a
//     package-level var initialised to one,
//   - an index into a package-level composite literal of constants,
//   - a call to a same-package function annotated //mdrep:labelset,
//     whose doc comment documents how the returned set is bounded
//     (canonicalising unknown inputs, panicking on out-of-range
//     indices, ...),
//   - a parameter of an *exported* function or method — the audited
//     instrumentation boundary (Instrument(reg, labels ...string) and
//     friends); callers are checked wherever this analyzer sees them.
//
// Span attribute keys are held to the same contract: every key handed
// to (*obs.Span).Attr / AttrStr names a fixed slot in the flight
// recorder's ring and a column in the rendered trace tree, so a key
// derived from request data would grow the attribute namespace exactly
// the way an unbounded label value grows the registry. Keys must be
// constants (package const tables), members of a declared finite set,
// or //mdrep:labelset results; attribute *values* are free per-trace
// data and are not checked.
//
// Parameters of unexported functions and closures are traced to their
// call sites within the package — the `kind := func(v string) ... ;
// kind("request_drops")` binding idiom checks the "request_drops" at the
// call, not the opaque v. Values the analyzer cannot trace (computed
// strings, struct fields, cross-package call results) are flagged.
package metriclabel

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"mdrep/internal/analysis/lintutil"
)

// name is the analyzer name, also the token accepted by //mdrep:allow.
const name = "metriclabel"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "require finite, statically evident metric label values and span attribute keys\n\n" +
		"Label values passed to the metrics registry and attribute keys passed to\n" +
		"span setters (obs.Span.Attr/AttrStr) must be compile-time constants,\n" +
		"members of a declared finite set (constant composite literal,\n" +
		"//mdrep:labelset function), or parameters of the exported instrumentation\n" +
		"boundary. User IDs, err.Error() strings and loop data explode Prometheus\n" +
		"cardinality and the trace attribute namespace.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// callInfo is one call expression with a copy of its enclosing node
// stack, pre-collected so forwarder obligations can be resolved without
// re-walking.
type callInfo struct {
	call  *ast.CallExpr
	stack []ast.Node
}

// obKind distinguishes how a traced parameter feeds label arguments.
type obKind int

const (
	obScalar obKind = iota // param is a single label value
	obPairs                // param is a key/value pair list ([]string or ...string)
)

// obligation asks: at every call site of target (a *types.Func for
// declared functions, a *types.Var for closures bound to a variable),
// check the argument(s) feeding parameter index with the label rules.
type obligation struct {
	target types.Object
	index  int
	kind   obKind
	pos    token.Pos // where the parameter flowed into a label, for reports
}

// obKey identifies an obligation independent of which label use created
// it, so one parameter feeding eight instruments is traced once.
type obKey struct {
	target types.Object
	index  int
	kind   obKind
}

type checker struct {
	pass     *analysis.Pass
	calls    []callInfo
	visited  map[obKey]bool
	reported map[token.Pos]bool
	work     []obligation
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	c := &checker{pass: pass, visited: map[obKey]bool{}, reported: map[token.Pos]bool{}}

	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		c.calls = append(c.calls, callInfo{call: call, stack: append([]ast.Node(nil), stack...)})
		return true
	})

	for _, ci := range c.calls {
		if start, ok := registryLabelStart(c.pass, ci.call); ok {
			c.checkPairArgs(ci.call.Args[start:], ci.call.Ellipsis.IsValid(), 0, ci.stack)
		}
		if idx, ok := spanAttrKeyArg(c.pass, ci.call); ok && idx < len(ci.call.Args) {
			c.checkValue(ci.call.Args[idx], ci.stack)
		}
	}
	for len(c.work) > 0 {
		ob := c.work[0]
		c.work = c.work[1:]
		c.resolve(ob)
	}
	return nil, nil
}

// registryLabelStart reports whether call targets a metrics.Registry
// instrument constructor and, if so, at which argument index the label
// key/value pairs begin.
func registryLabelStart(pass *analysis.Pass, call *ast.CallExpr) (int, bool) {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok {
		return 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0, false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" || named.Obj().Pkg() == nil {
		return 0, false
	}
	if !lintutil.IsPackage(named.Obj().Pkg().Path(), "metrics") {
		return 0, false
	}
	switch fn.Name() {
	case "Counter", "Gauge":
		return 1, true
	case "Histogram":
		return 2, true
	}
	return 0, false
}

// spanAttrKeyArg reports whether call sets a span attribute —
// (*obs.Span).Attr or AttrStr — and, if so, which argument carries the
// attribute key. Keys share the metric-label cardinality contract;
// values are per-trace data and stay unchecked.
func spanAttrKeyArg(pass *analysis.Pass, call *ast.CallExpr) (int, bool) {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok {
		return 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0, false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "Span" || named.Obj().Pkg() == nil {
		return 0, false
	}
	if !lintutil.IsPackage(named.Obj().Pkg().Path(), "obs") {
		return 0, false
	}
	switch fn.Name() {
	case "Attr", "AttrStr":
		return 0, true
	}
	return 0, false
}

// checkPairArgs walks label arguments alternating key/value starting at
// the given parity (0 = key, 1 = value), classifying each value. spread
// marks a trailing `...` argument, which is treated as a pair source.
func (c *checker) checkPairArgs(args []ast.Expr, spread bool, parity int, stack []ast.Node) {
	for i, arg := range args {
		if spread && i == len(args)-1 {
			c.checkPairSource(arg, parity, stack)
			return
		}
		if parity == 1 {
			c.checkValue(arg, stack)
		}
		parity ^= 1
	}
}

// checkPairSource classifies an expression that denotes a whole label
// pair list (a []string), entered at the given parity.
func (c *checker) checkPairSource(e ast.Expr, parity int, stack []ast.Node) {
	switch v := e.(type) {
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if parity == 1 {
				c.checkValue(el, stack)
			}
			parity ^= 1
		}
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "append" {
			if _, isB := c.pass.TypesInfo.ObjectOf(id).(*types.Builtin); isB && len(v.Args) > 0 {
				// append(base, more...): base advances the parity if its
				// length is statically known; non-literal bases are traced
				// as their own pair source.
				base := v.Args[0]
				if lit, ok := base.(*ast.CompositeLit); ok {
					for _, el := range lit.Elts {
						if parity == 1 {
							c.checkValue(el, stack)
						}
						parity ^= 1
					}
				} else {
					c.checkPairSource(base, parity, stack)
					// parity after an untraced base is unknown; assume it
					// stays pair-aligned, the only sane calling convention.
				}
				c.checkPairArgs(v.Args[1:], v.Ellipsis.IsValid(), parity, stack)
				return
			}
		}
		c.flag(e, "label pair list built by a call cannot be cardinality-checked; build pairs inline or forward a checked parameter")
	case *ast.Ident:
		if v.Name == "nil" {
			return
		}
		obj := c.pass.TypesInfo.ObjectOf(v)
		pv, ok := obj.(*types.Var)
		if !ok {
			c.flag(e, "opaque label pair list %s", v.Name)
			return
		}
		if c.allowParamOrDefer(pv, v, obPairs, stack) {
			return
		}
		if c.finiteSetVar(pv) {
			return
		}
		c.flag(e, "label pair list %s is not statically finite; build pairs inline, range a constant set, or forward an exported parameter", v.Name)
	default:
		c.flag(e, "opaque label pair list; build pairs inline so values stay checkable")
	}
}

// checkValue classifies a single label value expression.
func (c *checker) checkValue(e ast.Expr, stack []ast.Node) {
	if tv, ok := c.pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return // compile-time constant
	}
	switch v := e.(type) {
	case *ast.IndexExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			if pv, isVar := c.pass.TypesInfo.ObjectOf(id).(*types.Var); isVar && c.finiteSetVar(pv) {
				return // indexing a package-level constant set
			}
		}
		c.flag(e, "label value %s indexes a collection that is not a declared constant set", types.ExprString(e))
	case *ast.CallExpr:
		if fn, ok := typeutil.Callee(c.pass.TypesInfo, v).(*types.Func); ok {
			if fn.Name() == "Error" && fn.Type().(*types.Signature).Recv() != nil {
				c.flag(e, "err.Error() as a label value gives every distinct error its own series; classify into a constant set first")
				return
			}
			if c.isLabelSetFunc(fn) {
				return
			}
		}
		c.flag(e, "label value computed by %s is not provably finite; canonicalise through an //mdrep:labelset function", types.ExprString(v.Fun))
	case *ast.Ident:
		obj := c.pass.TypesInfo.ObjectOf(v)
		switch o := obj.(type) {
		case *types.Const:
			return
		case *types.Var:
			if c.allowParamOrDefer(o, v, obScalar, stack) {
				return
			}
			if c.finiteRangeVar(o) {
				return
			}
			c.flag(e, "label value %s is loop or computed data, not a member of a declared finite set", v.Name)
		default:
			c.flag(e, "label value %s cannot be cardinality-checked", v.Name)
		}
	default:
		c.flag(e, "label value %s is not a constant or a member of a declared finite set", types.ExprString(e))
	}
}

// allowParamOrDefer handles an identifier that names a parameter: a
// parameter of an exported function or method is the trusted
// instrumentation boundary; a parameter of an unexported function or a
// closure defers checking to its call sites via an obligation. Returns
// true when the identifier was fully handled.
func (c *checker) allowParamOrDefer(pv *types.Var, id *ast.Ident, kind obKind, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		var exported bool
		var declObj types.Object
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			ft = f.Type
			exported = ast.IsExported(f.Name.Name)
			declObj = c.pass.TypesInfo.ObjectOf(f.Name)
		case *ast.FuncLit:
			ft = f.Type
			declObj = c.closureBinding(f, stack[:i])
		default:
			continue
		}
		idx, found := paramIndex(c.pass, ft, pv)
		if !found {
			continue // declared further out
		}
		if exported {
			return true
		}
		if declObj == nil {
			c.flag(id, "label value %s comes from a closure parameter the analyzer cannot trace to call sites", id.Name)
			return true
		}
		key := obKey{target: declObj, index: idx, kind: kind}
		if !c.visited[key] {
			c.visited[key] = true
			c.work = append(c.work, obligation{target: declObj, index: idx, kind: kind, pos: id.Pos()})
		}
		return true
	}
	return false
}

// paramIndex returns the position of pv among ft's declared parameters
// (counting each name in multi-name groups), or found=false when pv is
// not a parameter of ft.
func paramIndex(pass *analysis.Pass, ft *ast.FuncType, pv *types.Var) (int, bool) {
	if ft.Params == nil {
		return 0, false
	}
	idx := 0
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, nm := range field.Names {
			if pass.TypesInfo.Defs[nm] == pv {
				return idx, true
			}
			idx++
		}
	}
	return 0, false
}

// closureBinding returns the variable a function literal is bound to
// (`f := func(...)` or `var f = func(...)`), or nil when the literal
// escapes some other way.
func (c *checker) closureBinding(lit *ast.FuncLit, outer []ast.Node) types.Object {
	if len(outer) == 0 {
		return nil
	}
	switch p := outer[len(outer)-1].(type) {
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs == lit && i < len(p.Lhs) {
				if id, ok := p.Lhs[i].(*ast.Ident); ok {
					return c.pass.TypesInfo.ObjectOf(id)
				}
			}
		}
	case *ast.ValueSpec:
		for i, rhs := range p.Values {
			if rhs == lit && i < len(p.Names) {
				return c.pass.TypesInfo.ObjectOf(p.Names[i])
			}
		}
	}
	return nil
}

// resolve checks every call site of an obligation's target function.
func (c *checker) resolve(ob obligation) {
	matched := false
	for _, ci := range c.calls {
		if !c.callTargets(ci.call, ob.target) {
			continue
		}
		matched = true
		sig := c.targetSignature(ob.target)
		variadicPairs := ob.kind == obPairs && sig != nil && sig.Variadic() && ob.index == sig.Params().Len()-1
		switch {
		case variadicPairs:
			if ob.index < len(ci.call.Args) {
				c.checkPairArgs(ci.call.Args[ob.index:], ci.call.Ellipsis.IsValid(), 0, ci.stack)
			}
		case ob.index < len(ci.call.Args):
			arg := ci.call.Args[ob.index]
			if ob.kind == obPairs {
				c.checkPairSource(arg, 0, ci.stack)
			} else {
				c.checkValue(arg, ci.stack)
			}
		}
	}
	if !matched {
		// No visible call site (callback stored in a struct, passed
		// along, ...): the parameter cannot be traced.
		c.flag(posExpr{ob.pos}, "label value flows through %s, whose call sites the analyzer cannot see; canonicalise through an //mdrep:labelset function", ob.target.Name())
	}
}

// callTargets reports whether call invokes target — a declared function
// (resolved through Callee, covering methods) or a closure-bound
// variable (a plain identifier call).
func (c *checker) callTargets(call *ast.CallExpr, target types.Object) bool {
	switch t := target.(type) {
	case *types.Func:
		fn, ok := typeutil.Callee(c.pass.TypesInfo, call).(*types.Func)
		return ok && fn == t
	case *types.Var:
		id, ok := call.Fun.(*ast.Ident)
		return ok && c.pass.TypesInfo.ObjectOf(id) == t
	}
	return false
}

func (c *checker) targetSignature(target types.Object) *types.Signature {
	sig, _ := target.Type().(*types.Signature)
	return sig
}

// isLabelSetFunc reports whether fn is a same-package function whose
// declaration carries the //mdrep:labelset directive.
func (c *checker) isLabelSetFunc(fn *types.Func) bool {
	if fn.Pkg() != c.pass.Pkg {
		return false
	}
	for _, f := range c.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || c.pass.TypesInfo.ObjectOf(fd.Name) != fn {
				continue
			}
			return lintutil.HasDirective(fd.Doc, lintutil.LabelSetDirective)
		}
	}
	return false
}

// finiteRangeVar reports whether v is the key or value variable of a
// range statement iterating a declared finite set.
func (c *checker) finiteRangeVar(v *types.Var) bool {
	for _, f := range c.pass.Files {
		var ok bool
		ast.Inspect(f, func(n ast.Node) bool {
			rng, isRange := n.(*ast.RangeStmt)
			if !isRange || ok {
				return !ok
			}
			for _, kv := range []ast.Expr{rng.Key, rng.Value} {
				if id, isID := kv.(*ast.Ident); isID && c.pass.TypesInfo.Defs[id] == v {
					ok = c.finiteSetExpr(rng.X)
					return false
				}
			}
			return true
		})
		if ok {
			return true
		}
	}
	return false
}

// finiteSetVar reports whether v is a package-level variable initialised
// to a composite literal of constants.
func (c *checker) finiteSetVar(v *types.Var) bool {
	if v.Parent() != c.pass.Pkg.Scope() {
		return false
	}
	for _, f := range c.pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if c.pass.TypesInfo.Defs[id] != v || i >= len(vs.Values) {
						continue
					}
					lit, isLit := vs.Values[i].(*ast.CompositeLit)
					return isLit && c.constElems(lit)
				}
			}
		}
	}
	return false
}

// finiteSetExpr reports whether e denotes a finite constant set: a
// composite literal of constants, or a package-level var initialised to
// one.
func (c *checker) finiteSetExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return c.constElems(v)
	case *ast.Ident:
		if pv, ok := c.pass.TypesInfo.ObjectOf(v).(*types.Var); ok {
			return c.finiteSetVar(pv)
		}
	}
	return false
}

// constElems reports whether every element of a composite literal is a
// compile-time constant (for map literals: keys and values both).
func (c *checker) constElems(lit *ast.CompositeLit) bool {
	if len(lit.Elts) == 0 {
		return false
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if !c.isConst(kv.Key) || !c.isConst(kv.Value) {
				return false
			}
			continue
		}
		if !c.isConst(el) {
			return false
		}
	}
	return true
}

func (c *checker) isConst(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// posExpr adapts a bare position to the small surface flag() needs.
type posExpr struct{ p token.Pos }

func (p posExpr) Pos() token.Pos { return p.p }
func (p posExpr) End() token.Pos { return p.p }

func (c *checker) flag(at interface{ Pos() token.Pos }, format string, args ...interface{}) {
	if c.reported[at.Pos()] {
		return // the same expression can be reached through several obligations
	}
	c.reported[at.Pos()] = true
	lintutil.Report(c.pass, at.Pos(), name, format, args...)
}
