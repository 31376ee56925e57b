// Package deferhot forbids the control-flow and abstraction constructs that
// tax //spgemm:hotpath functions without necessarily allocating: defer,
// recover, and conversions of concrete values to interface types.
//
// hotalloc polices allocation; this pass polices the other half of the
// directive's contract. A defer in a per-row function costs a deferproc or
// open-coded frame bookkeeping per call and pins cleanup to function exit
// (the kernels want explicit cleanup at loop granularity); recover implies a
// defer and a panic-path the kernels must not have; and an interface
// conversion is where devirtualization dies — once a concrete ring or
// accumulator value is boxed, every method on it is an indirect call and,
// for non-pointer non-zero-size values, a heap box as well. The kernels pick
// their row bodies with one type switch per window (spgemm's bodiesFor) in
// un-annotated setup code for exactly this reason.
package deferhot

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/hotalloc"
)

// Analyzer is the deferhot pass.
var Analyzer = &analysis.Analyzer{
	Name: "deferhot",
	Doc:  "forbid defer, recover, and interface conversions in //spgemm:hotpath functions",
	Hint: "move the construct to un-annotated setup/driver code (assert rings to concrete types once per worker, clean up explicitly at loop exit), or drop the //spgemm:hotpath annotation",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotalloc.IsHot(fd) {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// hotalloc already rejects closures in hotpath bodies; their
			// contents are not hot-path code.
			return false
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hotpath function (per-call scheduling cost; use explicit cleanup)")
		case *ast.CallExpr:
			if analysis.CalleeName(n) == "recover" && isBuiltin(pass, n) {
				pass.Reportf(n.Pos(), "recover in hotpath function (implies a defer/panic path the kernels must not have)")
			}
			if ifaceName, ok := explicitIfaceConversion(pass, n); ok {
				pass.Reportf(n.Pos(), "conversion to interface type %s in hotpath function (boxes the value; methods become indirect calls)", ifaceName)
				return false
			}
			reportIfaceArgs(pass, n)
		case *ast.TypeAssertExpr:
			// Type assertions *from* an interface are reads, not boxing;
			// permitted (and unused by hotpath code today).
		}
		return true
	})
}

// explicitIfaceConversion reports a conversion expression I(x) whose target
// is an interface type and whose operand is a concrete type.
func explicitIfaceConversion(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if pass.TypesInfo == nil || len(call.Args) != 1 {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return "", false
	}
	if !isIface(tv.Type) {
		return "", false
	}
	at, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || at.Type == nil || isIface(at.Type) {
		return "", false
	}
	return types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), true
}

// reportIfaceArgs flags implicit boxing at call sites: a concrete-typed
// argument passed to an interface-typed parameter. This is how hot-loop
// values usually leak into interfaces (fmt-style sinks, sort.Sort), so the
// explicit-conversion check alone would miss the common case.
func reportIfaceArgs(pass *analysis.Pass, call *ast.CallExpr) {
	if pass.TypesInfo == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if ok && sig.TypeParams() != nil {
		// Generic call: parameter types mention type parameters, and a
		// Ring[V]-constrained argument is not boxed.
		return
	}
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil || !isIface(pt) {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil || isIface(at.Type) || at.IsNil() {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxes %s into interface %s in hotpath function",
			types.TypeString(at.Type, types.RelativeTo(pass.Pkg)),
			types.TypeString(pt, types.RelativeTo(pass.Pkg)))
	}
}

func isIface(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if pass.TypesInfo == nil {
		return true
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return true
	}
	_, builtin := obj.(*types.Builtin)
	return builtin
}
