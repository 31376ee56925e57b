package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustValid(t *testing.T, m *CSR) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid CSR: %v", err)
	}
}

func TestNewCSREmpty(t *testing.T) {
	m := NewCSR(4, 7)
	mustValid(t, m)
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0", m.NNZ())
	}
	if m.Rows != 4 || m.Cols != 7 {
		t.Fatalf("dims = %dx%d", m.Rows, m.Cols)
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(5)
	mustValid(t, m)
	if m.NNZ() != 5 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	for i := 0; i < 5; i++ {
		cols, vals := m.Row(i)
		if len(cols) != 1 || cols[0] != int32(i) || vals[0] != 1 {
			t.Fatalf("row %d = %v %v", i, cols, vals)
		}
	}
}

func TestValidateCatchesBadRowPtr(t *testing.T) {
	m := Identity(3)
	m.RowPtr[1] = 5
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for non-monotone/oversized RowPtr")
	}
}

func TestValidateCatchesOutOfRangeColumn(t *testing.T) {
	m := Identity(3)
	m.ColIdx[2] = 99
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for out-of-range column")
	}
}

func TestValidateCatchesUnsortedWhenFlagged(t *testing.T) {
	m := &CSR{
		Rows: 1, Cols: 4,
		RowPtr: []int64{0, 2},
		ColIdx: []int32{3, 1},
		Val:    []float64{1, 2},
		Sorted: true,
	}
	if err := m.Validate(); err == nil {
		t.Fatal("expected error: flagged sorted but row is unsorted")
	}
	m.Sorted = false
	mustValid(t, m)
}

func TestSortRows(t *testing.T) {
	m := &CSR{
		Rows: 2, Cols: 5,
		RowPtr: []int64{0, 3, 5},
		ColIdx: []int32{4, 0, 2, 3, 1},
		Val:    []float64{40, 0, 20, 31, 12},
		Sorted: false,
	}
	m.SortRows()
	mustValid(t, m)
	want := []int32{0, 2, 4, 1, 3}
	for i, c := range want {
		if m.ColIdx[i] != c {
			t.Fatalf("ColIdx = %v, want %v", m.ColIdx, want)
		}
	}
	// Values must travel with their columns.
	if m.Val[0] != 0 || m.Val[2] != 40 || m.Val[3] != 12 {
		t.Fatalf("Val = %v", m.Val)
	}
}

func TestCompactMergesDuplicatesAndDropsZeros(t *testing.T) {
	m := &CSR{
		Rows: 1, Cols: 5,
		RowPtr: []int64{0, 5},
		ColIdx: []int32{2, 2, 4, 0, 0},
		Val:    []float64{1, 2, 7, 3, -3},
		Sorted: false,
	}
	m.Compact()
	mustValid(t, m)
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (col0 cancels, col2 merges)", m.NNZ())
	}
	cols, vals := m.Row(0)
	if cols[0] != 2 || vals[0] != 3 || cols[1] != 4 || vals[1] != 7 {
		t.Fatalf("row = %v %v", cols, vals)
	}
}

func TestTransposeSmall(t *testing.T) {
	// [1 2 0; 0 0 3]
	m := &CSR{
		Rows: 2, Cols: 3,
		RowPtr: []int64{0, 2, 3},
		ColIdx: []int32{0, 1, 2},
		Val:    []float64{1, 2, 3},
		Sorted: true,
	}
	tr := m.Transpose()
	mustValid(t, tr)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("dims %dx%d", tr.Rows, tr.Cols)
	}
	d := tr.ToDense()
	if d.At(0, 0) != 1 || d.At(1, 0) != 2 || d.At(2, 1) != 3 {
		t.Fatalf("transpose wrong: %+v", d)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m := Random(1+rng.Intn(30), 1+rng.Intn(30), 0.2, rng)
		tt := m.Transpose().Transpose()
		if !Equal(m, tt) {
			t.Fatalf("trial %d: transpose twice != original", trial)
		}
	}
}

func TestTransposeProducesSortedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		m := Random(1+rng.Intn(40), 1+rng.Intn(40), 0.3, rng)
		tr := m.Transpose()
		if !tr.IsSortedRows() {
			t.Fatalf("trial %d: transpose rows not sorted", trial)
		}
		mustValid(t, tr)
	}
}

func TestPermuteColsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Random(20, 15, 0.3, rng)
	perm := RandomPermutation(15, rng)
	p := m.PermuteCols(perm)
	if p.Sorted {
		t.Fatal("permuted matrix should be marked unsorted")
	}
	mustValid(t, p)
	// Inverse permutation restores the matrix.
	inv := make([]int32, 15)
	for i, v := range perm {
		inv[v] = int32(i)
	}
	back := p.PermuteCols(inv)
	back.SortRows()
	if !Equal(m, back) {
		t.Fatal("inverse column permutation did not restore matrix")
	}
}

func TestShuffleRowEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := Random(20, 30, 0.4, rng)
	s := m.ShuffleRowEntries(rng)
	if s.Sorted {
		t.Fatal("shuffled matrix must be marked unsorted")
	}
	mustValid(t, s)
	if !EqualApprox(m, s, 0) {
		t.Fatal("shuffle changed the represented matrix")
	}
	// Original untouched.
	if !m.IsSortedRows() {
		t.Fatal("shuffle modified the original")
	}
	// Row pointers identical.
	for i := range m.RowPtr {
		if m.RowPtr[i] != s.RowPtr[i] {
			t.Fatal("shuffle changed row structure")
		}
	}
}

func TestPermuteRows(t *testing.T) {
	m := Identity(4)
	p := m.PermuteRows([]int{3, 2, 1, 0})
	mustValid(t, p)
	for i := 0; i < 4; i++ {
		cols, _ := p.Row(i)
		if len(cols) != 1 || cols[0] != int32(3-i) {
			t.Fatalf("row %d cols = %v", i, cols)
		}
	}
}

func TestTriangleSplitPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := Random(25, 25, 0.25, rng)
	l := m.LowerTriangle()
	u := m.UpperTriangle()
	mustValid(t, l)
	mustValid(t, u)
	// Every strictly-lower entry in L, strictly-upper in U.
	for i := 0; i < l.Rows; i++ {
		cols, _ := l.Row(i)
		for _, c := range cols {
			if int(c) >= i {
				t.Fatalf("L row %d has col %d", i, c)
			}
		}
		cols, _ = u.Row(i)
		for _, c := range cols {
			if int(c) <= i {
				t.Fatalf("U row %d has col %d", i, c)
			}
		}
	}
	// L + U + diag == m.
	var diag int64
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			if int(c) == i {
				diag++
			}
		}
	}
	if l.NNZ()+u.NNZ()+diag != m.NNZ() {
		t.Fatalf("split loses entries: %d + %d + %d != %d", l.NNZ(), u.NNZ(), diag, m.NNZ())
	}
}

func TestSelectColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := Random(10, 12, 0.4, rng)
	sel := []int32{1, 5, 9}
	s := m.SelectColumns(sel)
	mustValid(t, s)
	if s.Cols != 3 {
		t.Fatalf("Cols = %d", s.Cols)
	}
	if !s.Sorted {
		t.Fatal("increasing selection should stay sorted")
	}
	d := m.ToDense()
	ds := s.ToDense()
	for i := 0; i < 10; i++ {
		for j, c := range sel {
			if d.At(i, int(c)) != ds.At(i, j) {
				t.Fatalf("(%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := Identity(3)
	c := m.Clone()
	c.Val[0] = 42
	c.ColIdx[1] = 0
	if m.Val[0] != 1 || m.ColIdx[1] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestRowAccessors(t *testing.T) {
	m := Identity(3)
	if m.RowNNZ(1) != 1 {
		t.Fatalf("RowNNZ = %d", m.RowNNZ(1))
	}
	cols, vals := m.Row(2)
	if len(cols) != 1 || cols[0] != 2 || vals[0] != 1 {
		t.Fatalf("Row(2) = %v %v", cols, vals)
	}
}

// Property: for any random matrix, Compact is idempotent.
func TestCompactIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Random(1+rng.Intn(20), 1+rng.Intn(20), 0.3, rng)
		once := m.Clone().Compact()
		twice := once.Clone().Compact()
		return Equal(once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose preserves nnz and swaps dimensions.
func TestTransposePropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Random(1+rng.Intn(25), 1+rng.Intn(25), 0.25, rng)
		tr := m.Transpose()
		return tr.Rows == m.Cols && tr.Cols == m.Rows && tr.NNZ() == m.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
