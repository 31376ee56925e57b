// Package compilerfb turns compiler feedback into lintable facts: it drives
// go build with diagnostic gcflags (-m for heap escapes, -m=2 for inlining
// decisions, -d=ssa/check_bce for residual bounds checks, -S for the calls
// the compiled code makes), parses the version-sensitive output into stable
// normalized entries, and diffs them against the one checked-in budget file
// (lint/budget.txt), a section per report.
//
// The inline, bounds-check and call sections are keyed by the
// //spgemm:hotpath directive: only functions that carry it are budgeted, so
// they track exactly the loops whose micro-properties (inlined ring ops, no
// bounds checks, no allocation or dispatch) the kernels' measured position
// rests on. The escape section covers the hot packages whole.
package compilerfb

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// directive is the comment marking a function whose per-row work neither
// allocates nor dispatches.
const directive = "//spgemm:hotpath"

// HotFunc is one //spgemm:hotpath function as found in source: its file
// (module-relative, forward slashes), canonical name, and line extent.
type HotFunc struct {
	File      string
	Name      string // "Func" or "Recv.Method", generics stripped
	StartLine int
	EndLine   int
}

// HotIndex locates hotpath functions by file and by position, bridging
// compiler diagnostics (which carry positions and mangled names) back to the
// annotated source functions they budget.
type HotIndex struct {
	byFile map[string][]HotFunc
}

// ScanHotFuncs parses every non-test .go file under the given module-relative
// package dirs and indexes the functions carrying the hotpath directive.
func ScanHotFuncs(root string, pkgDirs []string) (*HotIndex, error) {
	ix := &HotIndex{byFile: map[string][]HotFunc{}}
	fset := token.NewFileSet()
	for _, dir := range pkgDirs {
		abs := filepath.Join(root, dir)
		entries, err := os.ReadDir(abs)
		if err != nil {
			return nil, fmt.Errorf("scan %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parse %s/%s: %v", dir, name, err)
			}
			rel := path.Join(dir, name)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !isHot(fd) {
					continue
				}
				ix.byFile[rel] = append(ix.byFile[rel], HotFunc{
					File:      rel,
					Name:      declName(fd),
					StartLine: fset.Position(fd.Pos()).Line,
					EndLine:   fset.Position(fd.End()).Line,
				})
			}
		}
	}
	return ix, nil
}

// isHot reports whether the function's doc comment carries the directive.
func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), directive) {
			return true
		}
	}
	return false
}

// declName is the canonical name of a declared function: bare name for
// functions, "Recv.Method" (pointer stars and type parameters stripped) for
// methods — the same shape CanonicalFuncName reduces compiler names to.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// Funcs returns every indexed hotpath function, ordered by file then line.
func (ix *HotIndex) Funcs() []HotFunc {
	var out []HotFunc
	for _, fns := range ix.byFile {
		out = append(out, fns...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].StartLine < out[j].StartLine
	})
	return out
}

// Enclosing returns the hotpath function containing file:line, if any. Lines
// inside closures nested in a hotpath body attribute to the outer function,
// which is what a budget wants.
func (ix *HotIndex) Enclosing(file string, line int) (HotFunc, bool) {
	for _, hf := range ix.byFile[file] {
		if line >= hf.StartLine && line <= hf.EndLine {
			return hf, true
		}
	}
	return HotFunc{}, false
}

// hotEntries folds n positions, each a file:line and what was found there,
// into budget entries, one per (hotpath function, what) with the count of
// positions: "file.go: Func: what xN". Counts, not positions, are budgeted
// so that unrelated edits that move lines do not churn the list, while a new
// finding in a budgeted function fails the diff. Positions outside hotpath
// functions are not budgeted.
func (ix *HotIndex) hotEntries(n int, at func(i int) (file string, line int, what string)) map[string]bool {
	counts := map[string]int{}
	for i := range n {
		file, line, what := at(i)
		if hf, ok := ix.Enclosing(file, line); ok {
			counts[fmt.Sprintf("%s: %s: %s", hf.File, hf.Name, what)]++
		}
	}
	entries := map[string]bool{}
	for k, c := range counts {
		entries[fmt.Sprintf("%s x%d", k, c)] = true
	}
	return entries
}

// MatchHot reports whether a compiler-reported function name in file refers
// to an indexed hotpath function. Compiler names arrive mangled
// ("(*HashTableG[go.shape.float64]).Upsert", "accum.sortPairs[...]"); the
// canonicalized form is matched exactly, then with a leading package
// qualifier tolerated.
func (ix *HotIndex) MatchHot(file, rawName string) (HotFunc, bool) {
	canon := CanonicalFuncName(rawName)
	for _, hf := range ix.byFile[file] {
		if hf.Name == canon || strings.HasSuffix(canon, "."+hf.Name) {
			return hf, true
		}
	}
	return HotFunc{}, false
}

// CanonicalFuncName reduces a compiler-printed function name to the stable
// "Func" / "Recv.Method" form used in the budget: type-parameter brackets
// are dropped, receiver parentheses and stars unwrapped, and package paths
// in receiver position stripped. A plain leading "pkg." qualifier on a
// function is kept (MatchHot tolerates it); receiver-qualified methods are
// unambiguous and normalize fully.
func CanonicalFuncName(raw string) string {
	s := stripBrackets(strings.TrimSpace(raw))
	if i := strings.Index(s, "("); i >= 0 {
		if j := strings.Index(s[i:], ")"); j > 0 {
			recv := strings.TrimLeft(s[i+1:i+j], "*")
			if k := strings.LastIndex(recv, "."); k >= 0 {
				recv = recv[k+1:]
			}
			method := strings.TrimPrefix(s[i+j+1:], ".")
			if method == "" {
				return recv
			}
			return recv + "." + method
		}
	}
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// stripBrackets removes balanced [...] groups (type arguments).
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// qualifierRe matches a lowercase identifier qualifier ("pkg." or a chain
// like "go.shape.") immediately followed by more identifier text. Applied to
// fixpoint it collapses "accum.HashTableG" → "HashTableG" and
// "go.shape.float64" → "float64" without eating prose ("escapes to heap"
// has no dot-identifier pair).
var qualifierRe = regexp.MustCompile(`\b[a-z][a-zA-Z0-9_]*\.([A-Za-z_(])`)

// StripQualifiers removes lowercase package/shape qualifiers from the
// identifiers inside a diagnostic message so the same diagnostic reported
// from two build contexts (in-package vs. re-exported during cross-package
// inlining) normalizes to one budget entry.
func StripQualifiers(msg string) string {
	for {
		next := qualifierRe.ReplaceAllString(msg, "$1")
		if next == msg {
			return msg
		}
		msg = next
	}
}

// CompilerOutput builds pkgs from the module root with the given extra
// gcflags applied to each listed package, returning the combined compiler
// diagnostics with the module root stripped from absolute paths (-S prints
// them), so that every section reads module-relative files. The build
// targets amd64 whatever the host, so that a budget regenerated on another
// machine matches CI's. The go command replays cached compiler output, so
// repeated runs are cheap and deterministic.
func CompilerOutput(root string, pkgs []string, gcflag string) (string, error) {
	args := []string{"build"}
	for _, p := range pkgs {
		args = append(args, "-gcflags="+p+"="+gcflag)
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOARCH=amd64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build -gcflags=%s: %v\n%s", gcflag, err, out)
	}
	return strings.ReplaceAll(string(out), strings.TrimSuffix(root, "/")+"/", ""), nil
}

// Toolchain returns the running go toolchain's major.minor version
// ("go1.24"), the key the budget file is pinned to: every section parses
// compiler output whose shape and decisions may change between releases.
func Toolchain() (string, error) {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOVERSION: %v", err)
	}
	v := strings.TrimSpace(string(out))
	if parts := strings.Split(v, "."); len(parts) >= 2 {
		return parts[0] + "." + parts[1], nil
	}
	return v, nil
}

// toolchainPrefix marks the budget header line carrying the pinned toolchain
// version.
const toolchainPrefix = "# toolchain: "

// Section is one named part of the budget file: the normalized entries one
// compiler report is allowed to contain, under the comment lines that say
// how to read them.
type Section struct {
	Name    string
	Doc     []string // comment lines, without "# "
	Entries map[string]bool
}

// Budget is the one checked-in budget file: a toolchain pin and one
// "[name]" section per compiler report.
type Budget struct {
	Toolchain string
	Sections  map[string]map[string]bool
}

// ReadBudget loads path. '#' lines are comments except for the toolchain
// pin; an entry before the first "[name]" line is an error.
func ReadBudget(path string) (*Budget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &Budget{Sections: map[string]map[string]bool{}}
	var cur map[string]bool
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, toolchainPrefix):
			b.Toolchain = strings.TrimSpace(strings.TrimPrefix(line, toolchainPrefix))
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]"):
			cur = map[string]bool{}
			b.Sections[line[1:len(line)-1]] = cur
		case cur == nil:
			return nil, fmt.Errorf("%s: entry %q before the first [section]", path, line)
		default:
			cur[line] = true
		}
	}
	return b, nil
}

// WriteBudget writes the header comment lines (without "# "), the toolchain
// pin, and the sections in the given order with their entries sorted, so an
// -update on an unchanged tree rewrites the same bytes.
func WriteBudget(path string, header []string, toolchain string, sections []Section) error {
	var b strings.Builder
	for _, h := range header {
		b.WriteString("# " + h + "\n")
	}
	b.WriteString(toolchainPrefix + toolchain + "\n")
	for _, sec := range sections {
		b.WriteString("\n[" + sec.Name + "]\n")
		for _, d := range sec.Doc {
			b.WriteString("# " + d + "\n")
		}
		keys := make([]string, 0, len(sec.Entries))
		for k := range sec.Entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(k + "\n")
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o666)
}

// Diff splits observed entries into those missing from the budget
// (violations) and budgeted entries no longer observed (prune candidates).
func Diff(got map[string]bool, allowed map[string]bool) (added, removed []string) {
	for e := range got {
		if !allowed[e] {
			added = append(added, e)
		}
	}
	for e := range allowed {
		if !got[e] {
			removed = append(removed, e)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}

// CheckToolchain compares the budget's pinned toolchain against the current
// one, returning a regeneration instruction on mismatch. Compiler upgrades
// must fail loudly: escape analysis, inlining budgets and bounds-check
// elimination all shift between releases, and a stale budget would mask or
// invent regressions.
func CheckToolchain(b *Budget, current, path, regen string) error {
	if b.Toolchain == "" || b.Toolchain == current {
		return nil
	}
	return fmt.Errorf("%s was generated with %s but the current toolchain is %s; inspect the diff and regenerate with: %s",
		path, b.Toolchain, current, regen)
}
