// Command spgemm-lint diffs what the compiler reports for the hot packages
// (accum, mempool, sched, spgemm) against lint/budget.txt, one section per
// report: heap escapes (-m), cannot-inline decisions for //spgemm:hotpath
// functions and ring methods (-m=2), residual bounds checks in hotpath
// functions (-d=ssa/check_bce), and the runtime and indirect calls that the
// compiled hotpath functions make (-S).
//
//	spgemm-lint            diff against the budget; exit 1 on a new entry
//	spgemm-lint -update    rewrite the budget instead
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis/compilerfb"
)

func main() {
	update := flag.Bool("update", false, "rewrite lint/budget.txt instead of diffing against it")
	flag.Parse()
	code, err := runBudget(*update)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-lint: %v\n", err)
	}
	os.Exit(code)
}

const (
	budgetPath  = "lint/budget.txt"
	budgetRegen = "go run ./cmd/spgemm-lint -update"
	semiringDir = "internal/semiring"
)

var budgetHeader = []string{
	"Compiler-feedback budget for the hot packages (accum, mempool, sched, spgemm):",
	"what the go.mod toolchain is allowed to report about them, one section per",
	"report. CI fails on an entry that is observed and not listed; entries that",
	"are listed and no longer observed are printed as prune candidates.",
	"Regenerate with: " + budgetRegen,
	"A Go upgrade must regenerate it in the same PR (inspect the diff), and check",
	"that runtime.mallocgc still has the signature internal/spgemm/uninit.go",
	"pulls in with go:linkname.",
}

// hotDirs are the hot packages whose compiler feedback is budgeted, as
// module-relative directories: where the //spgemm:hotpath functions of the
// inline, bce and calls sections live. hotPkgs are their import paths;
// inlinePkgs adds semiring, since the ring methods are what the kernels need
// inlined and their own inlinability is gated too.
var (
	hotDirs = []string{
		"internal/accum",
		"internal/mempool",
		"internal/sched",
		"internal/spgemm",
	}
	hotPkgs    = importPaths(hotDirs...)
	inlinePkgs = append(importPaths(hotDirs...), importPaths(semiringDir)...)
)

func importPaths(dirs ...string) []string {
	out := make([]string, len(dirs))
	for i, d := range dirs {
		out[i] = "repro/" + d
	}
	return out
}

// budgetSection is one compiler report of the budget: which packages to
// build with which gcflag, how its output folds into entries, and what a
// new entry is called when the diff fails.
type budgetSection struct {
	name, gcflag string
	pkgs         []string
	doc          []string
	newMsg       string
	entries      func(out string, ix *compilerfb.HotIndex) map[string]bool
}

var budgetSections = []budgetSection{{
	name: "escapes", gcflag: "-m", pkgs: hotPkgs,
	doc: []string{
		"Heap escapes anywhere in the hot packages, one normalized diagnostic per",
		"line: \"file.go: message\" (line numbers dropped, duplicates collapsed).",
	},
	newMsg: "new heap escape in hot package",
	entries: func(out string, _ *compilerfb.HotIndex) map[string]bool {
		return escapeEntries(out)
	},
}, {
	name: "inline", gcflag: "-m=2", pkgs: inlinePkgs,
	doc: []string{
		"//spgemm:hotpath functions and semiring Add/Mul/Zero methods the compiler",
		"will not inline: \"file.go: cannot inline Func: reason\".",
	},
	newMsg: "function stopped inlining",
	entries: func(out string, ix *compilerfb.HotIndex) map[string]bool {
		return compilerfb.BuildInlineReport(compilerfb.ParseInlineOutput(out), ix, semiringDir)
	},
}, {
	name: "bce", gcflag: "-d=ssa/check_bce", pkgs: hotPkgs,
	doc: []string{
		"Bounds checks the prove pass leaves inside //spgemm:hotpath functions, one",
		"entry per (function, check kind) with the count of distinct positions:",
		"\"file.go: Func: IsInBounds xN\". These are data-dependent indices; a new",
		"one needs a re-slicing hint or a justified -update.",
	},
	newMsg: "new residual bounds check in hotpath function",
	entries: func(out string, ix *compilerfb.HotIndex) map[string]bool {
		return compilerfb.BuildBCEReport(compilerfb.ParseBCEOutput(out), ix)
	},
}, {
	name: "calls", gcflag: "-S", pkgs: hotPkgs,
	doc: []string{
		"Runtime calls and calls through a register that the compiled code of",
		"//spgemm:hotpath functions makes, one entry per (function, callee) with the",
		"count of distinct positions: \"file.go: Func: runtime.X xN\" or",
		"\"file.go: Func: indirect xN\". Panics, stack growth, write barriers,",
		"memmove, memclr and duff loops are not entries. An allocation, defer,",
		"recover, go statement, boxing or dispatch in a hot loop shows up here.",
	},
	newMsg: "new runtime or indirect call in hotpath function",
	entries: func(out string, ix *compilerfb.HotIndex) map[string]bool {
		return compilerfb.BuildCallReport(compilerfb.ParseCallOutput(out), ix)
	},
}}

// runBudget builds the hot packages once per section with that section's
// diagnostic gcflag and diffs the normalized output against lint/budget.txt;
// -update rewrites the file (pinned to the current toolchain) instead. A
// toolchain mismatch fails loudly, since every section parses
// version-sensitive compiler output.
func runBudget(update bool) (int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 2, err
	}
	tc, err := compilerfb.Toolchain()
	if err != nil {
		return 2, err
	}
	ix, err := compilerfb.ScanHotFuncs(root, hotDirs)
	if err != nil {
		return 2, err
	}
	got := make([]compilerfb.Section, len(budgetSections))
	total := 0
	for i, sec := range budgetSections {
		out, err := compilerfb.CompilerOutput(root, sec.pkgs, sec.gcflag)
		if err != nil {
			return 2, err
		}
		entries := sec.entries(out, ix)
		got[i] = compilerfb.Section{Name: sec.name, Doc: sec.doc, Entries: entries}
		total += len(entries)
	}
	file := filepath.Join(root, budgetPath)
	if update {
		if err := compilerfb.WriteBudget(file, budgetHeader, tc, got); err != nil {
			return 2, err
		}
		fmt.Printf("spgemm-lint: wrote %d entries to %s (toolchain %s)\n", total, budgetPath, tc)
		return 0, nil
	}
	want, err := compilerfb.ReadBudget(file)
	if err != nil {
		return 2, fmt.Errorf("%v (create it with: %s)", err, budgetRegen)
	}
	if err := compilerfb.CheckToolchain(want, tc, budgetPath, budgetRegen); err != nil {
		return 1, err
	}
	bad := 0
	for i, sec := range budgetSections {
		added, removed := compilerfb.Diff(got[i].Entries, want.Sections[sec.name])
		for _, e := range removed {
			fmt.Printf("spgemm-lint: [%s] entry no longer present (prune from %s): %s\n", sec.name, budgetPath, e)
		}
		for _, e := range added {
			fmt.Fprintf(os.Stderr, "spgemm-lint: [%s] %s: %s\n", sec.name, strings.ToUpper(sec.newMsg), e)
		}
		bad += len(added)
		fmt.Printf("spgemm-lint: [%s] %d budgeted, %d observed\n", sec.name, len(want.Sections[sec.name]), len(got[i].Entries))
	}
	if bad > 0 {
		return 1, fmt.Errorf("%d entries over budget; fix the hot code or, if unavoidable, re-run with %s and justify each in the PR", bad, budgetRegen)
	}
	fmt.Printf("spgemm-lint: budget OK (toolchain %s)\n", tc)
	return 0, nil
}

// escapeEntries parses -m output into the escape section's entries:
// "dir/file.go:12:6: x escapes to heap" becomes "dir/file.go: x escapes to
// heap" (line numbers dropped, duplicates collapsed, so unrelated edits
// don't churn the list); non-escape diagnostics are dropped. Package
// qualifiers inside the message are stripped: the compiler reports the same
// escape as "&HashTableG[...]{}" when compiling accum and as
// "&accum.HashTableG[...]{}" when re-reporting it from an inlined body in a
// dependent package, and without that the budget carries both.
func escapeEntries(out string) map[string]bool {
	got := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		// file.go:line:col: message
		parts := strings.SplitN(line, ":", 4)
		if len(parts) < 4 || !strings.HasSuffix(parts[0], ".go") {
			continue
		}
		got[parts[0]+": "+compilerfb.StripQualifiers(strings.TrimSpace(parts[3]))] = true
	}
	return got
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
