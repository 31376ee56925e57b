package matrix

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := Random(12, 9, 0.3, rng)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(m, back) {
		t.Fatal("Matrix Market round trip changed matrix")
	}
}

// TestMatrixMarketKeepsWhatTheTextLists: a stored 0, a -0, ±Inf and NaN all
// survive the text round trip with their bits, and positions listed twice sum
// to one entry even when the sum is zero.
func TestMatrixMarketKeepsWhatTheTextLists(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 2.5}
	m := &CSR{Rows: 1, Cols: len(vals), RowPtr: []int64{0, int64(len(vals))}, Val: vals, Sorted: true}
	for j := range vals {
		m.ColIdx = append(m.ColIdx, int32(j))
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.NNZ() {
		t.Fatalf("round trip kept %d of %d entries", back.NNZ(), m.NNZ())
	}
	for j, want := range vals {
		got := back.Val[j]
		if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
			t.Errorf("entry %d: %v came back as %v", j, want, got)
		}
	}
	cancel, err := ReadMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 5\n1 1 -5\n"))
	if err != nil || cancel.NNZ() != 1 || cancel.Val[0] != 0 {
		t.Fatalf("5 + -5 at one position: %v, %v", cancel, err)
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
% a comment
3 3 2
1 2
3 1
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToDense()
	if d.At(0, 1) != 1 || d.At(2, 0) != 1 || m.NNZ() != 2 {
		t.Fatalf("pattern parse wrong: nnz=%d", m.NNZ())
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 5.0
2 1 2.0
3 2 7.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToDense()
	if d.At(0, 0) != 5 {
		t.Fatal("diagonal lost")
	}
	if d.At(1, 0) != 2 || d.At(0, 1) != 2 {
		t.Fatal("symmetric expansion missing")
	}
	if d.At(2, 1) != 7 || d.At(1, 2) != 7 {
		t.Fatal("symmetric expansion missing")
	}
	if m.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5", m.NNZ())
	}
}

func TestMatrixMarketSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToDense()
	if d.At(1, 0) != 3 || d.At(0, 1) != -3 {
		t.Fatalf("skew expansion wrong: %v %v", d.At(1, 0), d.At(0, 1))
	}
}

func TestMatrixMarketIntegerValues(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate integer general
2 2 1
1 1 42
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.ToDense().At(0, 0) != 42 {
		t.Fatal("integer value lost")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad header":      "%%MatrixMarket tensor coordinate real general\n1 1 0\n",
		"array format":    "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
		"bad value type":  "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad symmetry":    "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"short entry":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"truncated":       "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n",
		"out of range":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n",
		"non-numeric val": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
	}
	for name, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := Random(8, 11, 0.4, rng)
	back := FromDense(m.ToDense())
	if !Equal(m, back) {
		t.Fatal("dense round trip changed matrix")
	}
}

func TestRandomWithDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := RandomWithDegree(30, 40, 7, rng)
	mustValid(t, m)
	for i := 0; i < m.Rows; i++ {
		if m.RowNNZ(i) != 7 {
			t.Fatalf("row %d has %d entries, want 7", i, m.RowNNZ(i))
		}
	}
	// Degree capped at column count.
	m = RandomWithDegree(5, 3, 10, rng)
	for i := 0; i < m.Rows; i++ {
		if m.RowNNZ(i) != 3 {
			t.Fatalf("row %d has %d entries, want 3", i, m.RowNNZ(i))
		}
	}
}

func TestMatrixMarketDimensionBounds(t *testing.T) {
	// Indices are int32: the largest representable dimension is MaxInt32.
	// 2^31 used to pass the (> 1<<31) validation despite overflowing the
	// int32 index space; anything above MaxInt32 must be rejected.
	reject := []string{
		"%%MatrixMarket matrix coordinate real general\n2147483648 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n1 2147483648 0\n",
		"%%MatrixMarket matrix coordinate real general\n4294967296 1 0\n",
	}
	for _, src := range reject {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("accepted out-of-range dimensions: %q", src)
		}
	}
	// Exactly MaxInt32 columns is the boundary and must be accepted
	// (cheap here: a single empty row, so no index-space allocation).
	ok := "%%MatrixMarket matrix coordinate real general\n1 2147483647 0\n"
	m, err := ReadMatrixMarket(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("rejected boundary dimensions: %v", err)
	}
	if m.Cols != 2147483647 {
		t.Fatalf("cols = %d, want MaxInt32", m.Cols)
	}
}

func TestMatrixMarketStrictSizeLine(t *testing.T) {
	// fmt.Sscan used to stop after three tokens, silently accepting
	// trailing junk on the size line. The parser must reject it.
	reject := []string{
		"%%MatrixMarket matrix coordinate real general\n3 3 1 junk\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n3 3 1 4\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n3 3\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n3 3 1.5\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n3 x 1\n1 1 1.0\n",
	}
	for _, src := range reject {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("accepted malformed size line: %q", src)
		}
	}
	// A well-formed size line still parses.
	ok := "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1.0\n"
	if _, err := ReadMatrixMarket(strings.NewReader(ok)); err != nil {
		t.Fatalf("rejected valid size line: %v", err)
	}
}
