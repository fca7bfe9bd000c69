// Package wallclock forbids ambient time and randomness sources in the
// packages whose behaviour must be reproducible.
//
// The replay-deterministic packages (core, sparse, journal, wire, eval)
// and the networked services that embed them (dht, peer, rpc) must derive all
// state-affecting time from injected clocks — the virtual time.Duration
// the engine threads through every event, or the `now func() time.Time`
// field pattern of dht.Storage — and all randomness from seeded
// generators (sim.RNG, rand.New(rand.NewSource(seed))). A stray
// time.Now() or global rand.Intn() makes behaviour differ between a live
// run and its journal replay, and makes tests depend on wall-clock
// sleeps.
//
// Calls to time.Now and time.Since are flagged; so are the package-level
// (globally seeded) functions of math/rand and math/rand/v2. Constructing
// an explicitly seeded generator (rand.New, rand.NewSource, ...) is
// allowed, as is referencing time.Now without calling it — the injectable
// clock idiom `now: time.Now` in a constructor default. Genuine
// wall-clock uses, such as network I/O deadlines, carry an
// //mdrep:allow wallclock suppression naming the reason.
//
// The observability layer gets the same treatment: any reference to
// obs.WallClock — even uncalled, e.g. obs.Timed(obs.WallClock, h) — is
// flagged, because binding the ambient clock to a span or observer
// inside a deterministic package defeats the injected-clock contract. Instrumented
// packages accept an obs.Clock from their caller (a cmd binary or a
// test's fake clock) and never choose the clock themselves.
package wallclock

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"mdrep/internal/analysis/lintutil"
)

// Packages is the set of packages that must not read ambient time or
// global randomness.
var Packages = []string{"core", "sparse", "journal", "wire", "eval", "dht", "peer", "rpc", "chaos", "massim", "blue", "walk"}

// allowedRandFuncs construct explicitly seeded generators and are the
// sanctioned alternative to the global source.
var allowedRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// name is the analyzer name, also the token accepted by //mdrep:allow.
const name = "wallclock"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "forbid time.Now/time.Since and global math/rand in deterministic packages\n\n" +
		"Deterministic packages must take time from injected clocks (the virtual\n" +
		"now threaded through events, or a `now func() time.Time` field like\n" +
		"dht.Storage's) and randomness from seeded generators, so journal replay\n" +
		"and tests reproduce live behaviour exactly.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.IsPackage(pass.Pkg.Path(), Packages...) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return // methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" {
				lintutil.Report(pass, call.Pos(), name,
					"time.%s reads the wall clock in a deterministic package; inject a clock (virtual now, or a `now func() time.Time` field as in dht.Storage)",
					fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !allowedRandFuncs[fn.Name()] {
				lintutil.Report(pass, call.Pos(), name,
					"%s.%s draws from the globally seeded source in a deterministic package; use an injected, explicitly seeded generator",
					fn.Pkg().Name(), fn.Name())
			}
		}
	})
	// References (not just calls) to obs.WallClock: passing the ambient
	// clock into a span is as nondeterministic as calling time.Now, and
	// the uncalled form is exactly how it would sneak in — as a Clock
	// argument. The time.Now reference exemption does not extend here:
	// an instrumented deterministic package must receive its obs.Clock
	// from the caller, never pick the wall clock itself.
	ins.Preorder([]ast.Node{(*ast.Ident)(nil)}, func(n ast.Node) {
		id := n.(*ast.Ident)
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Name() != "WallClock" {
			return
		}
		if !lintutil.IsPackage(fn.Pkg().Path(), "obs") {
			return
		}
		lintutil.Report(pass, id.Pos(), name,
			"obs.WallClock binds the ambient clock inside a deterministic package; accept an injected obs.Clock from the caller instead")
	})
	return nil, nil
}
