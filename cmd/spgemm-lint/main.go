// Command spgemm-lint runs the repo's custom static analyzers over Go
// packages. It exists in three modes:
//
//	spgemm-lint ./...                 standalone: load, typecheck, analyze
//	go vet -vettool=$(which spgemm-lint) ./...
//	                                  vet mode: driven by the go command's
//	                                  unitchecker protocol (-V=full, *.cfg)
//	spgemm-lint -mode=escapes [-update]
//	                                  escape-budget mode: diff the compiler's
//	                                  -m escape report for the hot packages
//	                                  against lint/escape_allowlist.txt
//	spgemm-lint -mode=inline [-update]
//	                                  inline budget: diff the compiler's -m=2
//	                                  inlining/devirtualization decisions for
//	                                  //spgemm:hotpath functions and ring
//	                                  methods against lint/inline_allowlist.txt,
//	                                  and require the devirtualized ring fast
//	                                  path's call sites to inline
//	spgemm-lint -mode=bce [-update]
//	                                  bounds-check budget: diff the residual
//	                                  -d=ssa/check_bce findings in hotpath
//	                                  functions against lint/bce_allowlist.txt
//
// Diagnostics print as file:line:col: [analyzer] message, followed by the
// analyzer's fix hint. Any diagnostic makes the exit status nonzero, which
// is what CI keys off.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/compilerfb"
	"repro/internal/analysis/passes/chanown"
	"repro/internal/analysis/passes/deferhot"
	"repro/internal/analysis/passes/hotalloc"
	"repro/internal/analysis/passes/parcapture"
	"repro/internal/analysis/passes/poolpair"
	"repro/internal/analysis/passes/spanpair"
	"repro/internal/analysis/passes/statsnil"
)

var analyzers = []*analysis.Analyzer{
	hotalloc.Analyzer,
	deferhot.Analyzer,
	spanpair.Analyzer,
	poolpair.Analyzer,
	chanown.Analyzer,
	parcapture.Analyzer,
	statsnil.Analyzer,
}

func main() {
	// Vet protocol, part 1: `go vet` probes the tool's identity with -V=full
	// before handing it any work.
	if len(os.Args) == 2 && os.Args[1] == "-V=full" {
		// The go command parses the token after "buildID=" to key its cache;
		// a content hash of the executable is what x/tools' unitchecker
		// prints, and it makes `go vet` re-run the tool when it is rebuilt.
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
			os.Exit(1)
		}
		data, err := os.ReadFile(exe)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
			os.Exit(1)
		}
		h := sha256.Sum256(data)
		fmt.Printf("spgemm-lint version devel buildID=%02x\n", string(h[:4]))
		return
	}
	// Vet protocol, part 1b: the go command also probes the tool's flag set;
	// we expose none beyond the protocol's own.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	// Vet protocol, part 2: one argument naming a *.cfg JSON file describing
	// the package unit to check.
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(runVetUnit(os.Args[1]))
	}

	mode := flag.String("mode", "lint", "lint (analyze packages), escapes (escape-budget diff), inline (inlining/devirtualization budget), or bce (bounds-check budget)")
	update := flag.Bool("update", false, "with -mode=escapes/inline/bce: rewrite the allowlist instead of diffing")
	flag.Parse()

	switch *mode {
	case "lint":
		patterns := flag.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		os.Exit(runLint(patterns))
	case "escapes":
		os.Exit(runEscapes(*update))
	case "inline":
		os.Exit(runInline(*update))
	case "bce":
		os.Exit(runBCE(*update))
	default:
		fmt.Fprintf(os.Stderr, "spgemm-lint: unknown -mode=%s\n", *mode)
		os.Exit(2)
	}
}

// ---------------------------------------------------------------------------
// Standalone mode
// ---------------------------------------------------------------------------

func runLint(patterns []string) int {
	loader := analysis.NewLoader(".")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: load: %v\n", err)
		return 2
	}
	bad := 0
	for _, lp := range pkgs {
		diags, err := analysis.RunAnalyzers(lp, loader.Fset(), analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
			return 2
		}
		bad += len(diags)
		printDiags(loader.Fset(), diags)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %d problem(s)\n", bad)
		return 1
	}
	return 0
}

// hintFor maps analyzer names to their fix hints for diagnostic output.
var hintFor = func() map[string]string {
	m := make(map[string]string, len(analyzers))
	for _, a := range analyzers {
		m[a.Name] = a.Hint
	}
	return m
}()

func printDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
		hint := d.Hint
		if hint == "" {
			hint = hintFor[d.Analyzer]
		}
		if hint != "" {
			fmt.Fprintf(os.Stderr, "\thint: %s\n", hint)
		}
	}
}

// ---------------------------------------------------------------------------
// Vet mode (unitchecker protocol)
// ---------------------------------------------------------------------------

// vetConfig is the subset of the go command's vet config we consume.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit checks one package unit as driven by `go vet -vettool`. The go
// command expects the vetx facts file to be written even on success, plain
// diagnostics on stderr, and exit 2 when diagnostics were reported.
func runVetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// Facts file first: go vet treats its absence as a tool failure.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
			return 1
		}
	}
	// Dependencies are loaded only so checkers can export facts (VetxOnly);
	// we keep no facts and our analyzers are repo-specific, so dependency and
	// standard-library units are done once the (empty) vetx file exists.
	if cfg.VetxOnly || cfg.Standard[cfg.ImportPath] {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	// Best-effort typecheck. Vet units are checked in dependency order but we
	// do not consume the export-data map, so cross-package references resolve
	// through the compiler's export files when available and degrade to
	// partial type info otherwise — the analyzers tolerate nil/partial Info.
	tinfo := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:                 importer.ForCompiler(fset, "gc", nil),
		Error:                    func(error) {},
		DisableUnusedImportCheck: true,
	}
	pkg, _ := conf.Check(cfg.ImportPath, fset, files, tinfo)

	lp := &analysis.LoadedPackage{
		ImportPath: cfg.ImportPath,
		Dir:        cfg.Dir,
		Files:      files,
		Pkg:        pkg,
		Info:       tinfo,
	}
	diags, err := analysis.RunAnalyzers(lp, fset, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 1
	}
	printDiags(fset, diags)
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// ---------------------------------------------------------------------------
// Escape-budget mode
// ---------------------------------------------------------------------------

// escapePkgs are the hot packages whose heap escapes are budgeted.
var escapePkgs = []string{
	"repro/internal/accum",
	"repro/internal/mempool",
	"repro/internal/sched",
	"repro/internal/spgemm",
}

const allowlistPath = "lint/escape_allowlist.txt"

// runEscapes compares the compiler's escape report against the checked-in
// allowlist. Entries are normalized to "file.go: message" (line numbers
// dropped, duplicates collapsed) so unrelated edits don't churn the list.
func runEscapes(update bool) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 2
	}
	got, err := collectEscapes(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 2
	}
	listFile := filepath.Join(root, allowlistPath)
	if update {
		if err := writeAllowlist(listFile, got); err != nil {
			fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
			return 2
		}
		fmt.Printf("spgemm-lint: wrote %d escape entries to %s\n", len(got), allowlistPath)
		return 0
	}
	want, err := readAllowlist(listFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v (run with -mode=escapes -update to create it)\n", err)
		return 2
	}
	var added, removed []string
	for e := range got {
		if !want[e] {
			added = append(added, e)
		}
	}
	for e := range want {
		if !got[e] {
			removed = append(removed, e)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	for _, e := range removed {
		fmt.Printf("spgemm-lint: escape no longer present (prune from %s): %s\n", allowlistPath, e)
	}
	if len(added) > 0 {
		for _, e := range added {
			fmt.Fprintf(os.Stderr, "spgemm-lint: NEW heap escape in hot package: %s\n", e)
		}
		fmt.Fprintf(os.Stderr,
			"spgemm-lint: %d new escape(s) exceed the budget; fix the allocation or, if intentional, re-run with -mode=escapes -update and justify in the PR\n",
			len(added))
		return 1
	}
	fmt.Printf("spgemm-lint: escape budget OK (%d allowlisted, %d observed)\n", len(want), len(got))
	return 0
}

func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

// collectEscapes builds the hot packages with -gcflags=-m and parses the
// normalized escape entries. The go command replays cached compiler output,
// so repeated runs are cheap and deterministic.
func collectEscapes(root string) (map[string]bool, error) {
	args := []string{"build"}
	for _, p := range escapePkgs {
		args = append(args, "-gcflags="+p+"=-m")
	}
	args = append(args, escapePkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	got := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		entry, ok := normalizeEscapeLine(sc.Text())
		if ok {
			got[entry] = true
		}
	}
	return got, nil
}

// normalizeEscapeLine turns "dir/file.go:12:6: x escapes to heap" into
// "dir/file.go: x escapes to heap"; non-escape diagnostics are dropped.
// Package qualifiers inside the message are stripped: the compiler reports
// the same escape as "&HashTableG[...]{}" when compiling accum and as
// "&accum.HashTableG[...]{}" when re-reporting it from an inlined body in a
// dependent package, and without normalization the allowlist carries both.
func normalizeEscapeLine(line string) (string, bool) {
	line = strings.TrimSpace(line)
	if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
		return "", false
	}
	// file.go:line:col: message
	parts := strings.SplitN(line, ":", 4)
	if len(parts) < 4 {
		return "", false
	}
	file := parts[0]
	msg := compilerfb.StripQualifiers(strings.TrimSpace(parts[3]))
	if !strings.HasSuffix(file, ".go") {
		return "", false
	}
	return file + ": " + msg, true
}

// ---------------------------------------------------------------------------
// Inline/devirtualization budget mode
// ---------------------------------------------------------------------------

// hotDirs are the module-relative package directories whose
// //spgemm:hotpath functions the inline and BCE budgets cover.
var hotDirs = []string{
	"internal/accum",
	"internal/mempool",
	"internal/sched",
	"internal/spgemm",
}

// inlinePkgs extends the hot packages with semiring: the ring methods are
// what the kernels need inlined, so their own inlinability is gated too.
var inlinePkgs = append(append([]string{}, escapePkgs...), "repro/internal/semiring")

const (
	inlineAllowlistPath = "lint/inline_allowlist.txt"
	bceAllowlistPath    = "lint/bce_allowlist.txt"
	semiringDir         = "internal/semiring"
)

// requiredInlines are the gate's hard guarantees: the hand-devirtualized
// float64 plus-times fast path (internal/spgemm/ringfast.go) writes its ring
// operations as method calls on a concrete semiring.PlusTimesF64 precisely
// so the compiler reports them as inlined; if these lines disappear the fast
// path has regressed to indirect dictionary calls and no allowlist can
// excuse it.
var requiredInlines = []compilerfb.RequiredInline{
	{File: "internal/spgemm/ringfast.go", Callee: "PlusTimesF64.Mul"},
	{File: "internal/spgemm/ringfast.go", Callee: "PlusTimesF64.Add"},
	// A Plan's streamed replay is nothing but these two calls per product.
	{File: "internal/spgemm/ringfast.go", Callee: "PlusTimesF64.Mul", Func: "planReplayRowsF64"},
	{File: "internal/spgemm/ringfast.go", Callee: "PlusTimesF64.Add", Func: "planReplayRowsF64"},
}

// runInline diffs the compiler's -m=2 inline/devirtualization decisions
// against the checked-in allowlist: any //spgemm:hotpath function reported
// "cannot inline", and any semiring Add/Mul/Zero method reported "cannot
// inline", must be allowlisted; the ring fast path's inlining-call witnesses
// must be present unconditionally.
func runInline(update bool) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 2
	}
	ix, err := compilerfb.ScanHotFuncs(root, hotDirs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 2
	}
	out, err := compilerfb.CompilerOutput(root, inlinePkgs, "-m=2")
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 2
	}
	rep := compilerfb.BuildInlineReport(compilerfb.ParseInlineOutput(out), ix, semiringDir, requiredInlines)
	// The required-inline contract is checked before any allowlist logic:
	// -update must not be able to bless its loss.
	if len(rep.MissingRequired) > 0 {
		for _, m := range rep.MissingRequired {
			fmt.Fprintf(os.Stderr, "spgemm-lint: REQUIRED INLINE MISSING: %s\n", m)
		}
		return 1
	}
	return diffBudget(budgetGate{
		name:     "inline",
		listPath: inlineAllowlistPath,
		regen:    "go run ./cmd/spgemm-lint -mode=inline -update",
		header: []string{
			"Inlining budget for //spgemm:hotpath functions and semiring ring methods.",
			"One normalized -m=2 decision per line: \"file.go: cannot inline Func: reason\".",
			"Regenerate with: go run ./cmd/spgemm-lint -mode=inline -update",
			"CI fails when a hotpath function or ring method stops inlining and is not listed here.",
		},
		newMsg: "function stopped inlining",
	}, root, rep.Violations, update)
}

// runBCE diffs the residual bounds checks that -d=ssa/check_bce reports
// inside //spgemm:hotpath functions against the checked-in allowlist.
// Entries budget counts per (function, check kind), not positions, so moving
// code doesn't churn the list but a new residual check fails the gate.
func runBCE(update bool) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 2
	}
	ix, err := compilerfb.ScanHotFuncs(root, hotDirs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 2
	}
	out, err := compilerfb.CompilerOutput(root, escapePkgs, "-d=ssa/check_bce")
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 2
	}
	entries := compilerfb.BuildBCEReport(compilerfb.ParseBCEOutput(out), ix)
	return diffBudget(budgetGate{
		name:     "bce",
		listPath: bceAllowlistPath,
		regen:    "go run ./cmd/spgemm-lint -mode=bce -update",
		header: []string{
			"Bounds-check budget for //spgemm:hotpath functions.",
			"One entry per (function, check kind) with the count of distinct positions:",
			"\"file.go: Func: IsInBounds xN\". The listed checks are the ones the prove",
			"pass cannot eliminate (data-dependent indices); new ones need a re-slicing",
			"hint or a justified -update.",
			"Regenerate with: go run ./cmd/spgemm-lint -mode=bce -update",
		},
		newMsg: "new residual bounds check in hotpath function",
	}, root, entries, update)
}

// budgetGate describes one compiler-feedback allowlist gate for diffBudget.
type budgetGate struct {
	name     string
	listPath string
	regen    string
	header   []string
	newMsg   string
}

// diffBudget is the shared allowlist workflow of the inline and BCE gates:
// -update rewrites the list (pinned to the current toolchain); otherwise the
// observed entries are diffed against it, with a toolchain mismatch failing
// loudly since both gates parse version-sensitive compiler output.
func diffBudget(g budgetGate, root string, got map[string]bool, update bool) int {
	tc, err := compilerfb.Toolchain()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 2
	}
	listFile := filepath.Join(root, g.listPath)
	if update {
		if err := compilerfb.WriteAllowlist(listFile, g.header, tc, got); err != nil {
			fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
			return 2
		}
		fmt.Printf("spgemm-lint: wrote %d %s entries to %s (toolchain %s)\n", len(got), g.name, g.listPath, tc)
		return 0
	}
	al, err := compilerfb.ReadAllowlist(listFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v (run with -mode=%s -update to create it)\n", err, g.name)
		return 2
	}
	if err := compilerfb.CheckToolchain(al, tc, g.listPath, g.regen); err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
		return 1
	}
	added, removed := compilerfb.Diff(got, al.Entries)
	for _, e := range removed {
		fmt.Printf("spgemm-lint: %s entry no longer present (prune from %s): %s\n", g.name, g.listPath, e)
	}
	if len(added) > 0 {
		for _, e := range added {
			fmt.Fprintf(os.Stderr, "spgemm-lint: %s: %s\n", strings.ToUpper(g.newMsg), e)
		}
		fmt.Fprintf(os.Stderr,
			"spgemm-lint: %d new %s violation(s); fix the hot function or, if unavoidable, re-run with %s and justify in the PR\n",
			len(added), g.name, g.regen)
		return 1
	}
	fmt.Printf("spgemm-lint: %s budget OK (%d allowlisted, %d observed, toolchain %s)\n", g.name, len(al.Entries), len(got), tc)
	return 0
}

func readAllowlist(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out[line] = true
	}
	return out, nil
}

func writeAllowlist(path string, entries map[string]bool) error {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# Heap-escape budget for the hot packages (accum, mempool, sched, spgemm).\n")
	b.WriteString("# One normalized compiler diagnostic per line: \"file.go: message\".\n")
	b.WriteString("# Regenerate with: go run ./cmd/spgemm-lint -mode=escapes -update\n")
	b.WriteString("# CI fails when a hot-package build reports an escape not listed here.\n")
	for _, k := range keys {
		b.WriteString(k)
		b.WriteString("\n")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o666)
}
