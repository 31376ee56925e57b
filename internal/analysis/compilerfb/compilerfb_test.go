package compilerfb

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func readCorpus(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	return string(data)
}

func scanFixture(t *testing.T) *HotIndex {
	t.Helper()
	ix, err := ScanHotFuncs("testdata", []string{"hotpkg"})
	if err != nil {
		t.Fatalf("ScanHotFuncs: %v", err)
	}
	return ix
}

func TestScanHotFuncs(t *testing.T) {
	ix := scanFixture(t)
	fns := ix.Funcs()
	var names []string
	for _, hf := range fns {
		names = append(names, hf.Name)
	}
	if want := []string{"table.Upsert", "scatter", "table.push", "fold"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("hotpath functions = %v, want %v", names, want)
	}
	if fns[0].File != "hotpkg/hot.go" {
		t.Errorf("first func = %+v, want it in hotpkg/hot.go", fns[0])
	}
	// Line extents drive Enclosing: a line inside Upsert's body attributes
	// to it, setup's body attributes to nothing.
	if hf, ok := ix.Enclosing("hotpkg/hot.go", fns[0].StartLine+1); !ok || hf.Name != "table.Upsert" {
		t.Errorf("Enclosing(body of Upsert) = %v, %v", hf, ok)
	}
	if _, ok := ix.Enclosing("hotpkg/hot.go", 38); ok {
		t.Error("Enclosing(setup body) matched a hotpath function")
	}
	if _, ok := ix.Enclosing("other.go", fns[0].StartLine); ok {
		t.Error("Enclosing matched in a file with no hotpath functions")
	}
}

func TestMatchHot(t *testing.T) {
	ix := scanFixture(t)
	for _, raw := range []string{
		"(*table).Upsert",
		"(*table[go.shape.int32]).Upsert",
		"hotpkg.(*table[go.shape.int32]).Upsert",
		"scatter",
		"scatter[go.shape.int32]",
		"hotpkg.scatter",
	} {
		if _, ok := ix.MatchHot("hotpkg/hot.go", raw); !ok {
			t.Errorf("MatchHot(%q) = false, want true", raw)
		}
	}
	for _, raw := range []string{"setup", "hotpkg.setup", "Upsert.table"} {
		if _, ok := ix.MatchHot("hotpkg/hot.go", raw); ok {
			t.Errorf("MatchHot(%q) = true, want false", raw)
		}
	}
}

func TestCanonicalFuncName(t *testing.T) {
	cases := []struct{ raw, want string }{
		{"sortPairs[go.shape.float64]", "sortPairs"},
		{"(*HashTableG[go.shape.float64]).Upsert", "HashTableG.Upsert"},
		{"accum.(*SPAG[go.shape.float64]).Upsert", "SPAG.Upsert"},
		{"(*repro/internal/accum.HashTableG[go.shape.float64]).Reset", "HashTableG.Reset"},
		{"semiring.PlusTimesF64.Mul", "semiring.PlusTimesF64.Mul"},
		{"plain", "plain"},
		{"repro/internal/spgemm.planReplayRowsF64", "spgemm.planReplayRowsF64"},
	}
	for _, c := range cases {
		if got := CanonicalFuncName(c.raw); got != c.want {
			t.Errorf("CanonicalFuncName(%q) = %q, want %q", c.raw, got, c.want)
		}
	}
}

func TestStripQualifiers(t *testing.T) {
	cases := []struct{ in, want string }{
		{"accum.HashTableG", "HashTableG"},
		{"go.shape.float64", "float64"},
		{"semiring.PlusTimesF64.Mul", "PlusTimesF64.Mul"},
		{"make([]float64, nnz) escapes to heap", "make([]float64, nnz) escapes to heap"},
		{"&CSRG[float64]{...} escapes to heap", "&CSRG[float64]{...} escapes to heap"},
		{"accum.(*HashTableG).Upsert", "(*HashTableG).Upsert"},
	}
	for _, c := range cases {
		if got := StripQualifiers(c.in); got != c.want {
			t.Errorf("StripQualifiers(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseInlineOutputGolden(t *testing.T) {
	lines := ParseInlineOutput(readCorpus(t, "inline_m2.txt"))
	// The corpus holds 13 lines; the parser must keep exactly the
	// cannot-inline lines with a file position and a well-formed message
	// (can-inline, inlining-call and devirtualizing lines are not consumed by
	// the gate).
	want := []InlineLine{
		{File: "hotpkg/hot.go", Line: 15, Col: 6, Func: "(*table[go.shape.int32]).Upsert", Detail: "function too complex: cost 178 exceeds budget 80"},
		{File: "hotpkg/hot.go", Line: 29, Col: 6, Func: "hotpkg.scatter[go.shape.int32]", Detail: "unhandled op: RANGE"},
		{File: "hotpkg/hot.go", Line: 37, Col: 6, Func: "setup", Detail: "function too complex: cost 90 exceeds budget 80"},
		{File: "fakering/ring.go", Line: 10, Col: 6, Func: "MaxTimesF64.Add", Detail: "function too complex: cost 90 exceeds budget 80"},
		{File: "fakering/ring.go", Line: 11, Col: 6, Func: "fakering.helper", Detail: "function too complex: cost 99 exceeds budget 80"},
		{File: "/usr/local/go/src/slices/sort.go", Line: 16, Col: 6, Func: "slices.Sort[[]int32,int32]", Detail: "function too complex: cost 81 exceeds budget 80"},
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("ParseInlineOutput mismatch:\n got %+v\nwant %+v", lines, want)
	}
}

func TestBuildInlineReport(t *testing.T) {
	ix := scanFixture(t)
	lines := ParseInlineOutput(readCorpus(t, "inline_m2.txt"))
	violations := BuildInlineReport(lines, ix, "fakering")
	want := map[string]bool{
		// Hotpath functions, canonicalized and with the reason truncated at
		// its first clause; the un-annotated setup and the stdlib line are
		// absent.
		"hotpkg/hot.go: cannot inline table.Upsert: function too complex": true,
		"hotpkg/hot.go: cannot inline scatter: unhandled op":              true,
		// The ring method in the semiring dir; fakering.helper is not a
		// ring method and must not appear.
		"fakering/ring.go: cannot inline MaxTimesF64.Add: function too complex": true,
	}
	if !reflect.DeepEqual(violations, want) {
		t.Errorf("violations:\n got %v\nwant %v", violations, want)
	}
}

func TestParseBCEOutputGolden(t *testing.T) {
	lines := ParseBCEOutput(readCorpus(t, "check_bce.txt"))
	want := []BCELine{
		{File: "hotpkg/hot.go", Line: 18, Col: 10, Kind: "IsInBounds"}, // duplicate position collapsed
		{File: "hotpkg/hot.go", Line: 22, Col: 13, Kind: "IsInBounds"},
		{File: "hotpkg/hot.go", Line: 31, Col: 7, Kind: "IsInBounds"},
		{File: "hotpkg/hot.go", Line: 30, Col: 12, Kind: "IsSliceInBounds"},
		{File: "hotpkg/hot.go", Line: 38, Col: 9, Kind: "IsInBounds"},
		{File: "/usr/local/go/src/slices/zsortordered.go", Line: 12, Col: 6, Kind: "IsInBounds"},
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("ParseBCEOutput mismatch:\n got %+v\nwant %+v", lines, want)
	}
}

func TestBuildBCEReport(t *testing.T) {
	ix := scanFixture(t)
	entries := BuildBCEReport(ParseBCEOutput(readCorpus(t, "check_bce.txt")), ix)
	want := map[string]bool{
		// Two distinct positions in Upsert fold to x2; the duplicated
		// position counts once. scatter gets one entry per check kind.
		// setup's line 38 and the stdlib file are not budgeted.
		"hotpkg/hot.go: table.Upsert: IsInBounds x2": true,
		"hotpkg/hot.go: scatter: IsInBounds x1":      true,
		"hotpkg/hot.go: scatter: IsSliceInBounds x1": true,
	}
	if !reflect.DeepEqual(entries, want) {
		t.Errorf("BuildBCEReport:\n got %v\nwant %v", entries, want)
	}
}

func TestParseCallOutputGolden(t *testing.T) {
	lines := ParseCallOutput(readCorpus(t, "asm_amd64.txt"))
	// Panics, stack growth, write barriers and direct calls to Go functions
	// are dropped; fold's second call through a register at the same
	// position collapses into the first.
	want := []CallLine{
		{File: "hotpkg/hot.go", Line: 38, Callee: "runtime.makeslice"},
		{File: "hotpkg/hot.go", Line: 46, Callee: "runtime.growslice"},
		{File: "hotpkg/hot.go", Line: 56, Callee: "indirect"},
		{File: "hotpkg/hot.go", Line: 64, Callee: "runtime.newobject"},
		{File: "/usr/local/go/src/sort/slice.go", Line: 23, Callee: "runtime.convTslice"},
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("ParseCallOutput mismatch:\n got %+v\nwant %+v", lines, want)
	}
}

func TestBuildCallReport(t *testing.T) {
	ix := scanFixture(t)
	entries := BuildCallReport(ParseCallOutput(readCorpus(t, "asm_amd64.txt")), ix)
	want := map[string]bool{
		// The self-append and the interface call in hotpath functions;
		// setup's and newTable's allocations and the stdlib file are not
		// budgeted.
		"hotpkg/hot.go: table.push: runtime.growslice x1": true,
		"hotpkg/hot.go: fold: indirect x1":                true,
	}
	if !reflect.DeepEqual(entries, want) {
		t.Errorf("BuildCallReport:\n got %v\nwant %v", entries, want)
	}
}

func TestAllowlistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "budget.txt")
	inline := map[string]bool{
		"b.go: cannot inline B: recursive":            true,
		"a.go: cannot inline A: function too complex": true,
	}
	bce := map[string]bool{"a.go: A: IsInBounds x2": true}
	write := func() []byte {
		t.Helper()
		err := WriteBudget(path, []string{"Header line."}, "go1.24", []Section{
			{Name: "inline", Doc: []string{"One decision per line."}, Entries: inline},
			{Name: "bce", Entries: bce},
			{Name: "escapes"},
		})
		if err != nil {
			t.Fatalf("WriteBudget: %v", err)
		}
		data, _ := os.ReadFile(path)
		return data
	}
	data := write()
	b, err := ReadBudget(path)
	if err != nil {
		t.Fatalf("ReadBudget: %v", err)
	}
	if b.Toolchain != "go1.24" {
		t.Errorf("Toolchain = %q, want go1.24", b.Toolchain)
	}
	want := map[string]map[string]bool{"inline": inline, "bce": bce, "escapes": {}}
	if !reflect.DeepEqual(b.Sections, want) {
		t.Errorf("Sections = %v, want %v", b.Sections, want)
	}
	// Sections keep the given order and entries are sorted, so the file
	// diffs cleanly and a second write is byte-identical.
	text := string(data)
	if i, j := strings.Index(text, "[inline]"), strings.Index(text, "[bce]"); i < 0 || j < i {
		t.Errorf("sections out of order:\n%s", text)
	}
	if i, j := strings.Index(text, "a.go: cannot"), strings.Index(text, "b.go: cannot"); i < 0 || j < i {
		t.Errorf("entries not sorted:\n%s", text)
	}
	if again := write(); string(again) != text {
		t.Errorf("rewrite changed the file:\n%s\nvs\n%s", again, text)
	}
	// An entry with no section to belong to is a malformed file.
	orphan := filepath.Join(t.TempDir(), "orphan.txt")
	os.WriteFile(orphan, []byte("# toolchain: go1.24\na.go: A: IsInBounds x1\n"), 0o666)
	if _, err := ReadBudget(orphan); err == nil {
		t.Error("ReadBudget accepted an entry outside any section")
	}

	got := map[string]bool{
		"a.go: cannot inline A: function too complex": true,
		"c.go: cannot inline C: function too complex": true,
	}
	added, removed := Diff(got, b.Sections["inline"])
	if !reflect.DeepEqual(added, []string{"c.go: cannot inline C: function too complex"}) {
		t.Errorf("added = %v", added)
	}
	if !reflect.DeepEqual(removed, []string{"b.go: cannot inline B: recursive"}) {
		t.Errorf("removed = %v", removed)
	}

	if err := CheckToolchain(b, "go1.24", path, "regen"); err != nil {
		t.Errorf("CheckToolchain same version: %v", err)
	}
	if err := CheckToolchain(b, "go1.31", path, "go run ./cmd/spgemm-lint -update"); err == nil {
		t.Error("CheckToolchain accepted a toolchain mismatch")
	} else if !strings.Contains(err.Error(), "go1.31") || !strings.Contains(err.Error(), "-update") {
		t.Errorf("CheckToolchain error %q lacks version or regen hint", err)
	}
}
