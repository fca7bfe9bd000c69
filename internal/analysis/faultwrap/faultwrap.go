// Package faultwrap enforces the internal/fault error taxonomy at the
// RPC boundary.
//
// The resilience layer (PR 4) retries only errors whose chain carries
// fault.ErrUnreachable or fault.ErrTimeout; everything else is treated
// as terminal. A naked errors.New or fmt.Errorf (without %w) constructed
// inside internal/dht, internal/peer, internal/rpc, internal/chaos or
// internal/walk therefore silently strips retryability the moment it
// crosses a package boundary: a transient condition misreported as
// terminal starves the retry budget, a terminal condition left bare can
// never be pinned.
// faultwrap makes the classification explicit. Every constructed error
// in those packages must be one of:
//
//   - a package-level sentinel (`var ErrX = errors.New(...)`), which
//     callers compare with errors.Is,
//   - an fmt.Errorf whose format wraps a classified cause with %w,
//   - an argument to one of the fault taggers — fault.Unreachable,
//     fault.Timeout, fault.Terminal — which attach the taxonomy verdict
//     without hiding the cause.
//
// Anything else is flagged, with a suggested fix wrapping the
// construction in fault.Terminal(...) — the conservative verdict
// (Retryable stays false, but the pin is now explicit and auditable);
// upgrade to Unreachable/Timeout where the condition is transient. The
// fix is attached only when the file already imports internal/fault.
package faultwrap

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"mdrep/internal/analysis/lintutil"
)

// Packages is the set of packages whose errors cross the RPC boundary
// and must carry an explicit fault classification.
var Packages = []string{"dht", "peer", "rpc", "chaos", "walk"}

// name is the analyzer name, also the token accepted by //mdrep:allow.
const name = "faultwrap"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "require fault-taxonomy classification on errors built in RPC-boundary packages\n\n" +
		"internal/dht, internal/peer, internal/rpc, internal/chaos and internal/walk\n" +
		"return errors through the retry layer, which keys off the internal/fault\n" +
		"taxonomy. A naked errors.New/fmt.Errorf loses retryability: construct\n" +
		"sentinels at package level, wrap causes with %w, or tag with\n" +
		"fault.Terminal/Unreachable/Timeout.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.IsPackage(pass.Pkg.Path(), Packages...) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		var construct string
		switch {
		case fn.Pkg().Path() == "errors" && fn.Name() == "New":
			construct = "errors.New"
		case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
			construct = "fmt.Errorf"
			if wrapsCause(pass, call) {
				return true
			}
		default:
			return true
		}
		if isSentinelDecl(stack) || isFaultTagged(pass, stack) {
			return true
		}
		var fixes []analysis.SuggestedFix
		if alias, ok := faultImport(pass, call.Pos()); ok {
			fixes = append(fixes, lintutil.WrapFix(
				"pin as terminal with "+alias+".Terminal (upgrade to Unreachable/Timeout if transient)",
				call.Pos(), call.End(), alias+".Terminal(", ")"))
		}
		lintutil.ReportWithFixes(pass, call.Pos(), name, fixes,
			"%s crosses the RPC boundary unclassified, losing retryability; tag with fault.Terminal/Unreachable/Timeout, wrap a classified cause with %%w, or hoist to a package-level sentinel",
			construct)
		return true
	})
	return nil, nil
}

// wrapsCause reports whether the fmt.Errorf call's constant format
// string contains a %w verb, preserving the wrapped error's
// classification through the chain.
func wrapsCause(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return false
	}
	return strings.Contains(constant.StringVal(tv.Value), "%w")
}

// isSentinelDecl reports whether the call sits in a package-level var or
// const declaration — the `var ErrX = errors.New(...)` sentinel idiom.
func isSentinelDecl(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		case *ast.GenDecl:
			return true
		}
	}
	return false
}

// isFaultTagged reports whether the constructed error is a direct
// argument of one of the internal/fault taggers.
func isFaultTagged(pass *analysis.Pass, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	parent, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := typeutil.Callee(pass.TypesInfo, parent).(*types.Func)
	if !ok || fn.Pkg() == nil || !lintutil.IsPackage(fn.Pkg().Path(), "fault") {
		return false
	}
	switch fn.Name() {
	case "Unreachable", "Timeout", "Terminal":
		return true
	}
	return false
}

// faultImport returns the local name under which the file containing pos
// imports the internal/fault package, if it does.
func faultImport(pass *analysis.Pass, pos token.Pos) (string, bool) {
	var file *ast.File
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			file = f
			break
		}
	}
	if file == nil {
		return "", false
	}
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || !lintutil.IsPackage(path, "fault") {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return "", false
			}
			return imp.Name.Name, true
		}
		return "fault", true
	}
	return "", false
}
