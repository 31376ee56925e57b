// Package hotalloc flags allocation-inducing constructs inside functions
// annotated //spgemm:hotpath.
//
// The paper's kernels (and this port) live or die by the allocate-once,
// reinitialize-per-row discipline of Section 3.2: per-row and per-element
// loops must not allocate. A function whose doc comment carries the
// //spgemm:hotpath directive promises exactly that, and this analyzer makes
// the promise mechanical. Inside a hotpath function it reports:
//
//   - make(...), new(...)
//   - slice and map composite literals, and &T{...}
//   - append whose result is not reassigned to its own first argument
//     (x = append(x, ...) is permitted: the Reserve/high-water-mark
//     discipline amortizes self-appends to zero at steady state)
//   - closure literals (captured variables escape to the heap)
//   - go statements
//   - string concatenation and string<->[]byte/[]rune conversions
//
// defer, recover, and interface-value conversions are the deferhot
// analyzer's territory: they tax the hot path through call overhead and
// devirtualization loss rather than (only) allocation, so the two passes
// split the directive's contract along that line.
//
// Functions that legitimately allocate (growth slow paths, constructors)
// simply must not carry the annotation; there is deliberately no line-level
// suppression mechanism.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Directive is the comment marking a function as allocation-free hot path.
const Directive = "//spgemm:hotpath"

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs in //spgemm:hotpath functions",
	Hint: "hoist the allocation out of the hot path (Reserve/Ensure scratch up front), or drop the //spgemm:hotpath annotation if this function is allowed to allocate",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !IsHot(fd) {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil
}

// IsHot reports whether the function's doc comment contains the directive.
func IsHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), Directive) {
			return true
		}
	}
	return false
}

// checkBody walks one hotpath function body, flagging allocation sites.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Pre-pass: appends whose result is assigned back to their own first
	// argument (x = append(x, ...)) are the amortized-growth idiom and are
	// permitted.
	selfAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || analysis.CalleeName(call) != "append" || len(call.Args) == 0 {
				continue
			}
			if types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				selfAppend[call] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in hotpath function (captured variables escape to the heap)")
			return false // the closure's own body is not hot-path code
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hotpath function (allocates a goroutine per call)")
		case *ast.CompositeLit:
			if allocatingLiteral(pass, n) {
				pass.Reportf(n.Pos(), "composite literal allocates in hotpath function")
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal allocates in hotpath function")
					return false
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass, n.X) {
				pass.Reportf(n.Pos(), "string concatenation allocates in hotpath function")
			}
		case *ast.CallExpr:
			switch analysis.CalleeName(n) {
			case "make":
				if isBuiltin(pass, n) {
					pass.Reportf(n.Pos(), "allocation in hotpath function: make")
				}
			case "new":
				if isBuiltin(pass, n) {
					pass.Reportf(n.Pos(), "allocation in hotpath function: new")
				}
			case "append":
				if isBuiltin(pass, n) && !selfAppend[n] {
					pass.ReportHintf(n.Pos(),
						"append back onto the same slice (x = append(x, ...)) so growth is amortized by the reserve discipline, or write through a presized buffer",
						"append result not reassigned to its first argument in hotpath function")
				}
			default:
				if conv, ok := allocatingConversion(pass, n); ok {
					pass.Reportf(n.Pos(), "conversion %s allocates in hotpath function", conv)
				}
			}
		}
		return true
	})
}

// isBuiltin reports whether the call's callee resolves to a builtin (or
// types are unavailable, in which case the bare name is trusted).
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

// allocatingLiteral reports whether the composite literal builds a slice or
// map (heap-allocating); fixed-size arrays and struct values may live on the
// stack and are permitted.
func allocatingLiteral(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	if pass.TypesInfo != nil {
		if tv, ok := pass.TypesInfo.Types[lit]; ok && tv.Type != nil {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				return true
			}
			return false
		}
	}
	switch t := lit.Type.(type) {
	case *ast.MapType:
		return true
	case *ast.ArrayType:
		return t.Len == nil // []T{...} is a slice literal
	}
	return false
}

// isString reports whether the expression has static type string.
func isString(pass *analysis.Pass, e ast.Expr) bool {
	if pass.TypesInfo == nil {
		return false
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// allocatingConversion detects string([]byte), []byte(string) and
// []rune(string) conversions, which copy their operand.
func allocatingConversion(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if pass.TypesInfo == nil || len(call.Args) != 1 {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return "", false
	}
	at, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || at.Type == nil {
		return "", false
	}
	dst, src := tv.Type.Underlying(), at.Type.Underlying()
	dstStr := isStringType(dst)
	srcStr := isStringType(src)
	dstSlice := isByteOrRuneSlice(dst)
	srcSlice := isByteOrRuneSlice(src)
	if (dstStr && srcSlice) || (dstSlice && srcStr) {
		return types.ExprString(call.Fun) + "(...)", true
	}
	return "", false
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
