package compilerfb

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// -m=2 parsing: the inline side of the compiler-feedback gate. The decision
// we consume has one line shape (Go 1.24):
//
//	file.go:l:c: cannot inline F: function too complex: cost 178 exceeds budget 80
//
// where F may be mangled: "(*HashTableG[go.shape.float64]).Upsert",
// "sortPairs[go.shape.float64]", or package-qualified for cross-package
// re-reports. Everything else -m=2 prints (can-inline costs, inlined calls,
// devirtualization notes, escape flow, parameter leaks) is ignored here.

// InlineLine is one parsed -m=2 "cannot inline" decision.
type InlineLine struct {
	File string // as printed (module-relative when built from the module root)
	Line int
	Col  int
	Func string // raw function name as printed
	// Detail is the failure reason ("function too complex: cost 178 exceeds
	// budget 80", "recursive", ...).
	Detail string
}

var inlinePosRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// ParseInlineOutput extracts the cannot-inline decisions from raw -m=2
// compiler output. Lines positioned outside .go files (e.g. <autogenerated>)
// and every other diagnostic are dropped.
func ParseInlineOutput(out string) []InlineLine {
	var res []InlineLine
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := inlinePosRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		rest, ok := strings.CutPrefix(m[4], "cannot inline ")
		if !ok {
			continue
		}
		name, detail, ok := strings.Cut(rest, ": ")
		if !ok {
			continue
		}
		res = append(res, InlineLine{File: m[1], Line: line, Col: col, Func: name, Detail: detail})
	}
	return res
}

// normalizeReason reduces a cannot-inline reason to its version-stable first
// clause: "function too complex: cost 178 exceeds budget 80" → "function too
// complex" (costs shift with every compiler release and with unrelated
// edits; the category does not).
func normalizeReason(reason string) string {
	if i := strings.Index(reason, ":"); i >= 0 {
		return strings.TrimSpace(reason[:i])
	}
	return strings.TrimSpace(reason)
}

// ringMethods are the Ring[V] operations whose implementations must stay
// trivially inlinable for every shipped ring.
var ringMethods = map[string]bool{"Add": true, "Mul": true, "Zero": true}

// BuildInlineReport applies the gate policy to parsed -m=2 lines and returns
// its violations, as budget-format entries "file.go: cannot inline Func:
// reason":
//
//   - a //spgemm:hotpath function reported "cannot inline" (diffed against
//     the budget; sortPairs' recursion lives there);
//   - a semiring ring method (Add/Mul/Zero) reported "cannot inline" — the
//     rings are the one abstraction every kernel's inner loop depends on, and
//     the dictionary's wrappers inline them.
func BuildInlineReport(lines []InlineLine, ix *HotIndex, semiringDir string) map[string]bool {
	violations := map[string]bool{}
	for _, il := range lines {
		if hf, hot := ix.MatchHot(il.File, il.Func); hot {
			// Keyed on the indexed declaration's name, so the local and
			// package-qualified spellings a cross-package build emits
			// (sortPairs / accum.sortPairs) fold to one entry.
			violations[fmt.Sprintf("%s: cannot inline %s: %s", il.File, hf.Name, normalizeReason(il.Detail))] = true
			continue
		}
		if strings.HasPrefix(il.File, semiringDir+"/") {
			canon := CanonicalFuncName(il.Func)
			if i := strings.LastIndex(canon, "."); i >= 0 && ringMethods[canon[i+1:]] {
				violations[fmt.Sprintf("%s: cannot inline %s: %s", il.File, StripQualifiers(canon), normalizeReason(il.Detail))] = true
			}
		}
	}
	return violations
}
