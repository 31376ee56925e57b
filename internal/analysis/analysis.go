// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework: an Analyzer runs over one
// typechecked package (a Pass) and reports position-anchored Diagnostics.
//
// The repository vendors no third-party modules, so instead of depending on
// x/tools this package reimplements the small subset the spgemm-lint suite
// needs — the Analyzer/Pass/Diagnostic contract, a `go list`-driven source
// loader (loader.go) and an analysistest-style want-comment harness
// (analysistest/) — on the standard library's go/ast, go/parser and go/types.
//
// The two analyzers under passes/, hotalloc and deferhot, hold
// //spgemm:hotpath functions to the allocate-once discipline of the paper's
// Section 3.2 (see DESIGN.md "Static analysis"). cmd/spgemm-lint drives them
// over the module, and its budget mode adds the compiler-feedback gate
// (internal/analysis/compilerfb). A new pass arrives with the defect it
// caught; CI counts the directories under passes/.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one finding, anchored at a token position. Hint carries the
// "how to fix it" line spgemm-lint prints under the finding; Analyzer is
// filled in by the runner.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Hint     string
	Analyzer string
}

// Pass describes one analyzed package and collects findings. Reports append
// to Diagnostics in source order of discovery.
type Pass struct {
	Analyzer    *Analyzer
	Fset        *token.FileSet
	Files       []*ast.File
	Pkg         *types.Package
	TypesInfo   *types.Info
	Diagnostics []Diagnostic
}

// Reportf records a finding with the analyzer's generic fix hint.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportHintf(pos, "", format, args...)
}

// ReportHintf records a finding with a specific fix hint.
func (p *Pass) ReportHintf(pos token.Pos, hint, format string, args ...any) {
	if hint == "" {
		hint = p.Analyzer.Hint
	}
	p.Diagnostics = append(p.Diagnostics, Diagnostic{
		Pos:     pos,
		Message: fmt.Sprintf(format, args...),
		Hint:    hint,
	})
}

// Analyzer is one named check. Run inspects the Pass and reports findings;
// the returned error means the analyzer itself failed (not that it found
// violations).
type Analyzer struct {
	Name string
	Doc  string
	// Hint is the generic one-line fix advice printed when a diagnostic
	// carries no specific hint of its own.
	Hint string
	Run  func(*Pass) error
}

// CalleeName returns the bare name of the function or method being called:
// "append" for append(...), "RunWorkers" for sched.RunWorkers(...) and for a
// plain RunWorkers(...). Returns "" for indirect calls.
func CalleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
