package compilerfb

import (
	"bufio"
	"regexp"
	"strconv"
	"strings"
)

// check_bce parsing: the bounds-check side of the compiler-feedback gate.
// -d=ssa/check_bce prints one line per bounds check that survives the prove
// pass into final SSA:
//
//	file.go:l:c: Found IsInBounds
//	file.go:l:c: Found IsSliceInBounds
//
// Generic functions repeat the report once per shape instantiation at the
// same position, so positions are deduplicated before counting. The budget
// covers only //spgemm:hotpath functions: a residual check in setup code is
// noise, one in a probe loop runs per flop.

// BCELine is one parsed residual-bounds-check position.
type BCELine struct {
	File string
	Line int
	Col  int
	Kind string // "IsInBounds" or "IsSliceInBounds"
}

var bceRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): Found (Is(?:Slice)?InBounds)$`)

// ParseBCEOutput extracts deduplicated bounds-check findings from raw
// check_bce compiler output.
func ParseBCEOutput(out string) []BCELine {
	seen := map[BCELine]bool{}
	var res []BCELine
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := bceRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		bl := BCELine{File: m[1], Line: line, Col: col, Kind: m[4]}
		if !seen[bl] {
			seen[bl] = true
			res = append(res, bl)
		}
	}
	return res
}

// BuildBCEReport folds residual checks into budget entries, one per
// (hotpath function, check kind) with the count of distinct source positions:
//
//	internal/accum/hash.go: HashTableG.Upsert: IsInBounds x2
func BuildBCEReport(lines []BCELine, ix *HotIndex) map[string]bool {
	return ix.hotEntries(len(lines), func(i int) (string, int, string) {
		return lines[i].File, lines[i].Line, lines[i].Kind
	})
}
