package compilerfb

import (
	"bufio"
	"regexp"
	"strconv"
	"strings"
)

// -S parsing: the call side of the compiler-feedback gate. -S prints the
// assembly of every compiled function, each instruction with the source
// position it came from (the innermost inlined position; CompilerOutput has
// stripped the module root from the absolute path):
//
//	0x0046 00070 (internal/accum/hash.go:62)	CALL	runtime.growslice(SB)
//	0x04c0 01216 (internal/spgemm/hashrow.go:510)	CALL	DX
//
// A hotpath function promises that its per-row loop neither allocates nor
// dispatches, and the calls the compiler actually emitted are where that
// promise breaks: runtime.mallocgc, newobject, growslice, convT*, deferreturn,
// gorecover, newproc, concatstring*, and any call through a register (an
// interface method, a dictionary method or a closure). Direct calls to Go
// functions are the inline section's business, and the runtime calls below
// are the price of ordinary code, not of a broken promise.

// harmlessCall matches the runtime calls every function may emit: the
// panics behind bounds and nil checks, stack growth, the write barrier, and
// the copy and clear loops of the copy and clear builtins.
var harmlessCall = regexp.MustCompile(`^runtime\.(panic|morestack|gcWriteBarrier|memmove$|memclr|duff)`)

// CallLine is one parsed call position inside compiled code.
type CallLine struct {
	File   string
	Line   int
	Callee string // "runtime.X", or "indirect" for a call through a register
}

var (
	callRe     = regexp.MustCompile(`^\s+0x[0-9a-f]+ \d+ \((.+\.go):(\d+)\)\tCALL\t(.+)$`)
	registerRe = regexp.MustCompile(`^[A-Z][A-Z0-9]*$`)
)

// ParseCallOutput extracts the budgeted calls from -S output: runtime calls
// outside harmlessCall and calls through a register. Generic code is
// compiled once per shape and inlined bodies once per caller, so positions
// are deduplicated: a call at file:line counts once per callee. The operand
// of a direct call may hold a space ("ptBodies[go.shape.float64,
// go.shape.struct {}].spaRow(SB)"), so it runs to the end of the line.
func ParseCallOutput(out string) []CallLine {
	seen := map[CallLine]bool{}
	var res []CallLine
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := callRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		callee, ok := budgetedCallee(m[3])
		if !ok {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		cl := CallLine{File: m[1], Line: line, Callee: callee}
		if !seen[cl] {
			seen[cl] = true
			res = append(res, cl)
		}
	}
	return res
}

// budgetedCallee names the call operand as the budget writes it, and reports
// whether the call is budgeted at all.
func budgetedCallee(operand string) (string, bool) {
	if registerRe.MatchString(operand) {
		return "indirect", true
	}
	sym, ok := strings.CutSuffix(operand, "(SB)")
	if !ok || !strings.HasPrefix(sym, "runtime.") || harmlessCall.MatchString(sym) {
		return "", false
	}
	return sym, true
}

// BuildCallReport folds call positions into budget entries, one per
// (hotpath function, callee) with the count of distinct positions:
//
//	internal/accum/hash.go: HashTableG.Upsert: runtime.growslice x1
//	internal/spgemm/hashrow.go: ringBodies.hashRow: indirect x3
func BuildCallReport(lines []CallLine, ix *HotIndex) map[string]bool {
	return ix.hotEntries(len(lines), func(i int) (string, int, string) {
		return lines[i].File, lines[i].Line, lines[i].Callee
	})
}
