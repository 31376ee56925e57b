package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// lintModule lays src out as the one file of a throwaway module and runs the
// lint driver over it the way `spgemm-lint ./...` would, returning the exit
// code and what was printed to stderr.
func lintModule(t *testing.T, src string) (code int, stderr string) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range map[string]string{
		"go.mod":  "module example.test/unitpkg\n\ngo 1.24\n",
		"unit.go": src,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = tmp
	code = runLint(dir, []string{"./..."})
	os.Stderr = old
	tmp.Close()
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

func TestRunLintReportsHotpathDefer(t *testing.T) {
	code, out := lintModule(t, `package unitpkg

//spgemm:hotpath
func drain(xs []int32) (n int) {
	defer cleanup()
	for range xs {
		n++
	}
	return n
}

func cleanup() {}
`)
	if code != 1 {
		t.Fatalf("runLint = %d, want 1 (diagnostics reported); stderr:\n%s", code, out)
	}
	for _, want := range []string{"unit.go:5:2: [deferhot] defer in hotpath function", "\thint: ", "1 problem(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr missing %q:\n%s", want, out)
		}
	}
}

func TestRunLintCleanPackage(t *testing.T) {
	code, out := lintModule(t, `package unitpkg

//spgemm:hotpath
func scatter(dst, idx []int32) {
	for i, s := range idx {
		dst[i] = s
	}
}
`)
	if code != 0 || out != "" {
		t.Fatalf("runLint = %d, want 0 and no output; stderr:\n%s", code, out)
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
