package compilerfb

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// -m=2 parsing: the inline/devirtualization side of the compiler-feedback
// gate. The decisions we consume come in two line shapes (Go 1.24):
//
//	file.go:l:c: cannot inline F: function too complex: cost 178 exceeds budget 80
//	file.go:l:c: inlining call to F
//
// where F may be mangled: "(*HashTableG[go.shape.float64]).Upsert",
// "sortPairs[go.shape.float64]", or package-qualified for cross-package
// re-reports. Everything else -m=2 prints (can-inline costs, devirtualization
// notes, escape flow, parameter leaks) is ignored here.

// InlineKind classifies one parsed -m=2 decision line.
type InlineKind int

const (
	CannotInline InlineKind = iota
	InliningCall
)

// InlineLine is one parsed -m=2 decision.
type InlineLine struct {
	File string // as printed (module-relative when built from the module root)
	Line int
	Col  int
	Kind InlineKind
	Func string // raw function name as printed
	// Detail is the failure reason for CannotInline ("function too complex:
	// cost 178 exceeds budget 80", "recursive", ...).
	Detail string
}

var inlinePosRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// ParseInlineOutput extracts the inline/devirtualization decisions from raw
// -m=2 compiler output. Lines positioned outside .go files (e.g.
// <autogenerated>) and non-decision diagnostics are dropped.
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
		il := InlineLine{File: m[1], Line: line, Col: col}
		msg := m[4]
		switch {
		case strings.HasPrefix(msg, "cannot inline "):
			rest := strings.TrimPrefix(msg, "cannot inline ")
			name, detail, ok := strings.Cut(rest, ": ")
			if !ok {
				continue
			}
			il.Kind, il.Func, il.Detail = CannotInline, name, detail
		case strings.HasPrefix(msg, "inlining call to "):
			il.Kind, il.Func = InliningCall, strings.TrimPrefix(msg, "inlining call to ")
		default:
			continue
		}
		res = append(res, il)
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

// RequiredInline asserts that the compiler must report at least one
// "inlining call to <Callee>" at a call site in File. These are the gate's
// hard guarantees — the hand-devirtualized ring call sites — and are never
// budgeted away: losing one is a silent-performance-bug class the gate
// exists to catch.
type RequiredInline struct {
	File   string // module-relative file containing the call sites
	Callee string // canonical callee name, e.g. "PlusTimesF64.Mul"
	// Func, when set, narrows the contract to call sites inside that
	// //spgemm:hotpath function of File (its HotFunc name): a witness
	// elsewhere in the file does not count.
	Func string
}

// InlineReport is the gate's verdict over one -m=2 run.
type InlineReport struct {
	// Violations are budget-format entries:
	// "file.go: cannot inline Func: reason".
	Violations map[string]bool
	// MissingRequired lists RequiredInline contracts with no matching
	// inlining-call line; always fatal.
	MissingRequired []string
}

// ringMethods are the Ring[V] operations whose implementations must stay
// trivially inlinable for every shipped ring.
var ringMethods = map[string]bool{"Add": true, "Mul": true, "Zero": true}

// BuildInlineReport applies the gate policy to parsed -m=2 lines:
//
//   - a //spgemm:hotpath function reported "cannot inline" is a violation
//     (diffed against the budget; sortPairs' recursion lives there);
//   - a semiring ring method (Add/Mul/Zero) reported "cannot inline" is a
//     violation — the rings are the one abstraction every kernel's inner
//     loop depends on;
//   - each RequiredInline must be witnessed by an inlining-call line.
func BuildInlineReport(lines []InlineLine, ix *HotIndex, semiringDir string, required []RequiredInline) InlineReport {
	rep := InlineReport{Violations: map[string]bool{}}
	witnessed := map[RequiredInline]bool{}
	for _, il := range lines {
		switch il.Kind {
		case CannotInline:
			if hf, hot := ix.MatchHot(il.File, il.Func); hot {
				// Keyed on the indexed declaration's name, so the local
				// and package-qualified spellings a cross-package build
				// emits (sortPairs / accum.sortPairs) fold to one entry.
				entry := fmt.Sprintf("%s: cannot inline %s: %s", il.File, hf.Name, normalizeReason(il.Detail))
				rep.Violations[entry] = true
				continue
			}
			if strings.HasPrefix(il.File, semiringDir+"/") {
				canon := CanonicalFuncName(il.Func)
				if i := strings.LastIndex(canon, "."); i >= 0 && ringMethods[canon[i+1:]] {
					entry := fmt.Sprintf("%s: cannot inline %s: %s", il.File, StripQualifiers(canon), normalizeReason(il.Detail))
					rep.Violations[entry] = true
				}
			}
		case InliningCall:
			// Cross-package callees keep their package qualifier in -m
			// output (semiring.PlusTimesF64.Mul), so a dot-suffix match
			// accepts both qualified and local spellings.
			canon := CanonicalFuncName(il.Func)
			for _, req := range required {
				if il.File != req.File || !(canon == req.Callee || strings.HasSuffix(canon, "."+req.Callee)) {
					continue
				}
				if hf, ok := ix.Enclosing(il.File, il.Line); req.Func == "" || (ok && hf.Name == req.Func) {
					witnessed[req] = true
				}
			}
		}
	}
	for _, req := range required {
		if !witnessed[req] {
			where := req.File
			if req.Func != "" {
				where += ": " + req.Func
			}
			rep.MissingRequired = append(rep.MissingRequired,
				fmt.Sprintf("%s: no \"inlining call to %s\" reported — the devirtualized ring fast path regressed", where, req.Callee))
		}
	}
	return rep
}
