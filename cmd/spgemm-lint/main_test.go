package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/compilerfb"
)

// costlySrc is the one file of a throwaway module. hot holds each construct
// that breaks a hotpath function's promise, one per line, and each line's
// comment names the call the compiled code makes for it (a defer's call
// sits at the exit that runs it). cold holds only a
// make the compiler keeps on the stack and a closure that does not escape,
// which cost nothing at run time and so make no call.
const costlySrc = `package unitpkg

type ring interface{ Add(a, b int) int }

var (
	sinkAny   any
	sinkInts  []int
	sinkPtr   *int
	sinkFunc  func() int
	sinkStr   string
	sinkBytes []byte
)

//spgemm:hotpath
func hot(r ring, n int, s string, b []byte) int {
	defer done()
	if recover() != nil { // want runtime.gorecover
		return 0 // want runtime.deferreturn
	}
	go done()                          // want runtime.newproc
	sinkInts = make([]int, n)          // want runtime.makeslice
	sinkPtr = new(int)                 // want runtime.newobject
	sinkFunc = func() int { return n } // want runtime.newobject
	sinkStr = s + s                    // want runtime.concatstring2
	sinkBytes = []byte(s)              // want runtime.stringtoslicebyte
	sinkStr = string(b)                // want runtime.slicebytetostring
	sinkAny = n                        // want runtime.convT64
	return r.Add(n, n)                 // want indirect
}

//spgemm:hotpath
func cold(n int) int {
	buf := make([]int, 8)
	at := func(i int) int { return buf[i&7] + n }
	return at(n)
}

func done() {}
`

var wantRe = regexp.MustCompile(`// want (\S+)$`)

// TestCallsSectionCatchesCostlyConstructs compiles costlySrc as its own
// module the way the budget compiles the hot packages, and checks that each
// costly construct in hot is one budgeted call at its own line and that
// cold yields none.
func TestCallsSectionCatchesCostlyConstructs(t *testing.T) {
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"go.mod":  "module example.test/unitpkg\n\ngo 1.24\n",
		"unit.go": costlySrc,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	calls := budgetSections[len(budgetSections)-1]
	if calls.name != "calls" {
		t.Fatalf("last budget section is [%s], want [calls]", calls.name)
	}
	ix, err := compilerfb.ScanHotFuncs(dir, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	out, err := compilerfb.CompilerOutput(dir, []string{"example.test/unitpkg"}, calls.gcflag)
	if err != nil {
		t.Fatal(err)
	}

	var want, got []string
	counts := map[string]int{}
	for i, line := range strings.Split(costlySrc, "\n") {
		if m := wantRe.FindStringSubmatch(line); m != nil {
			want = append(want, fmt.Sprintf("unit.go:%d: %s", i+1, m[1]))
			counts["unit.go: hot: "+m[1]]++
		}
	}
	for _, cl := range compilerfb.ParseCallOutput(out) {
		if _, ok := ix.Enclosing(cl.File, cl.Line); ok {
			got = append(got, fmt.Sprintf("%s:%d: %s", cl.File, cl.Line, cl.Callee))
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("calls in hotpath functions:\n got %q\nwant %q", got, want)
	}

	wantEntries := map[string]bool{}
	for k, n := range counts {
		wantEntries[fmt.Sprintf("%s x%d", k, n)] = true
	}
	if entries := calls.entries(out, ix); !reflect.DeepEqual(entries, wantEntries) {
		t.Errorf("[calls] entries:\n got %v\nwant %v", entries, wantEntries)
	}
}

func TestEscapeEntries(t *testing.T) {
	out := strings.Join([]string{
		"# repro/internal/accum",
		"internal/accum/hash.go:40:9: &HashTableG[go.shape.float64]{} escapes to heap",
		"internal/accum/hash.go:91:9: &accum.HashTableG[go.shape.float64]{} escapes to heap", // re-reported from a dependent package
		"internal/accum/hash.go:52:2: moved to heap: scratch",
		"internal/accum/hash.go:60:7: t does not escape",
		"<autogenerated>:1: .this escapes to heap",
	}, "\n")
	want := map[string]bool{
		"internal/accum/hash.go: &HashTableG[float64]{} escapes to heap": true,
		"internal/accum/hash.go: moved to heap: scratch":                 true,
	}
	if got := escapeEntries(out); !reflect.DeepEqual(got, want) {
		t.Errorf("escapeEntries:\n got %v\nwant %v", got, want)
	}
}
