package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func TestFlopSmall(t *testing.T) {
	// A = [1 1; 0 1], B = [1 1; 1 0]
	a := FromDense(&Dense{Rows: 2, Cols: 2, Data: []float64{1, 1, 0, 1}})
	b := FromDense(&Dense{Rows: 2, Cols: 2, Data: []float64{1, 1, 1, 0}})
	total, perRow := Flop(a, b)
	// Row 0 of A touches B rows 0 (2 nnz) and 1 (1 nnz) = 3 flop.
	// Row 1 of A touches B row 1 (1 nnz) = 1 flop.
	if total != 4 || perRow[0] != 3 || perRow[1] != 1 {
		t.Fatalf("flop = %d, perRow = %v", total, perRow)
	}
}

func TestFlopMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a := Random(1+rng.Intn(20), 1+rng.Intn(20), 0.3, rng)
		b := Random(a.Cols, 1+rng.Intn(20), 0.3, rng)
		total, perRow := Flop(a, b)
		var brute int64
		for i := 0; i < a.Rows; i++ {
			var rowf int64
			acols, _ := a.Row(i)
			for _, k := range acols {
				rowf += b.RowNNZ(int(k))
			}
			if rowf != perRow[i] {
				t.Fatalf("trial %d row %d: perRow=%d brute=%d", trial, i, perRow[i], rowf)
			}
			brute += rowf
		}
		if total != brute {
			t.Fatalf("trial %d: total=%d brute=%d", trial, total, brute)
		}
	}
}

func TestSymbolicNNZMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		a := Random(1+rng.Intn(25), 1+rng.Intn(25), 0.25, rng)
		b := Random(a.Cols, 1+rng.Intn(25), 0.25, rng)
		sym := SymbolicNNZ(a, b)
		// NaiveMultiply keeps numerically-cancelled entries out, so compare
		// against the structural count: union of patterns.
		c := NaiveMultiply(a, b)
		// SymbolicNNZ counts structural nonzeros, which can exceed numeric
		// nnz if values cancel; with random floats cancellation has
		// probability zero.
		if sym != c.NNZ() {
			t.Fatalf("trial %d: symbolic=%d naive=%d", trial, sym, c.NNZ())
		}
	}
}

func TestProductStats(t *testing.T) {
	a := Identity(4)
	s := ProductStats(a, a)
	if s.Flop != 4 || s.NNZOut != 4 || s.CompressionRatio != 1 {
		t.Fatalf("I*I stats = %+v", s)
	}
}

func TestProductStatsEmptyProduct(t *testing.T) {
	a := NewCSR(3, 3)
	s := ProductStats(a, a)
	if s.NNZOut != 0 || !math.IsInf(s.CompressionRatio, 1) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMaxAvgRowNNZ(t *testing.T) {
	m := &CSR{
		Rows: 3, Cols: 5,
		RowPtr: []int64{0, 1, 4, 4},
		ColIdx: []int32{0, 1, 2, 3},
		Val:    []float64{1, 1, 1, 1},
		Sorted: true,
	}
	if m.MaxRowNNZ() != 3 {
		t.Fatalf("MaxRowNNZ = %d", m.MaxRowNNZ())
	}
	if got := m.AvgRowNNZ(); math.Abs(got-4.0/3.0) > 1e-15 {
		t.Fatalf("AvgRowNNZ = %v", got)
	}
}

func TestFlopIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Random(40, 30, 0.2, rng)
	b := Random(30, 25, 0.2, rng)
	wantTotal, wantRows := Flop(a, b)

	buf := make([]int64, 0, 64)
	gotTotal, gotRows := FlopInto(a, b, buf)
	if gotTotal != wantTotal {
		t.Fatalf("total = %d, want %d", gotTotal, wantTotal)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("perRow length %d, want %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("perRow[%d] = %d, want %d", i, gotRows[i], wantRows[i])
		}
	}
	if &gotRows[0] != &buf[:1][0] {
		t.Fatal("buffer with sufficient capacity was not reused")
	}
	// Undersized buffer: must allocate, not panic.
	gotTotal2, rows2 := FlopInto(a, b, make([]int64, 0, 1))
	if gotTotal2 != wantTotal || len(rows2) != a.Rows {
		t.Fatalf("undersized-buffer FlopInto wrong: %d, %d rows", gotTotal2, len(rows2))
	}
}

func TestStructureChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := Random(30, 30, 0.2, rng)

	// Stable across calls and clones.
	if m.StructureChecksum() != m.StructureChecksum() {
		t.Fatal("checksum not deterministic")
	}
	if m.Clone().StructureChecksum() != m.StructureChecksum() {
		t.Fatal("clone checksum differs")
	}

	// Blind to values.
	vc := m.Clone()
	for i := range vc.Val {
		vc.Val[i] *= 3.25
	}
	if vc.StructureChecksum() != m.StructureChecksum() {
		t.Fatal("value change altered the structure checksum")
	}

	// Sensitive to structure: column relabeling and row-pointer shifts.
	cc := m.Clone()
	if len(cc.ColIdx) == 0 {
		t.Skip("empty random matrix")
	}
	cc.ColIdx[0] = (cc.ColIdx[0] + 1) % int32(cc.Cols)
	if cc.StructureChecksum() == m.StructureChecksum() {
		t.Fatal("column change not detected")
	}
	dd := m.Clone()
	dd.Rows++
	dd.RowPtr = append(dd.RowPtr, dd.RowPtr[len(dd.RowPtr)-1])
	if dd.StructureChecksum() == m.StructureChecksum() {
		t.Fatal("dimension change not detected")
	}
}
