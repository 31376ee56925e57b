package spgemm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// TestStressAllAlgorithmsOnRMAT is the heavy integration test: every
// algorithm against the naive oracle on realistic R-MAT inputs (skewed and
// uniform), at several worker counts, sorted and unsorted.
func TestStressAllAlgorithmsOnRMAT(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short")
	}
	rng := rand.New(rand.NewSource(601))
	inputs := []*matrix.CSR{
		gen.ER(9, 8, rng),
		gen.RMAT(9, 8, gen.G500Params, rng),
	}
	for _, a := range inputs {
		want := matrix.NaiveMultiply(a, a)
		for _, tc := range allAlgorithms {
			for _, workers := range []int{1, 3, 8} {
				got, err := Multiply(a, a, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(a, a, tc.stripes), Workers: workers})
				if err != nil {
					t.Fatalf("%v workers=%d: %v", tc.name, workers, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%v workers=%d: %v", tc.name, workers, err)
				}
				if !matrix.EqualApprox(want, got, 1e-9) {
					t.Fatalf("%v workers=%d: wrong product on %v", tc.name, workers, a)
				}
				if tc.unsortedOut {
					got, err = Multiply(a, a, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(a, a, tc.stripes), Workers: workers, Unsorted: true})
					if err != nil || !matrix.EqualApprox(want, got, 1e-9) {
						t.Fatalf("%v workers=%d unsorted: wrong product (%v)", tc.name, workers, err)
					}
				}
			}
		}
	}
}

// TestStressAssociativity checks (A·B)·C == A·(B·C) through the library for
// the main algorithms — a three-matrix integration property.
func TestStressAssociativity(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	rng := rand.New(rand.NewSource(602))
	for trial := 0; trial < 5; trial++ {
		a := matrix.Random(30, 25, 0.2, rng)
		b := matrix.Random(25, 35, 0.2, rng)
		c := matrix.Random(35, 20, 0.2, rng)
		for _, alg := range []Algorithm{AlgHash, AlgHeap} {
			opt := &Options{Algorithm: alg}
			ab, err := Multiply(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			left, err := Multiply(ab, c, opt)
			if err != nil {
				t.Fatal(err)
			}
			bc, err := Multiply(b, c, opt)
			if err != nil {
				t.Fatal(err)
			}
			right, err := Multiply(a, bc, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.EqualApprox(left, right, 1e-8) {
				t.Fatalf("trial %d %v: associativity broken", trial, alg)
			}
		}
	}
}

// TestSpecialValuesPropagate: NaN and Inf in inputs must flow through the
// accumulators, not crash or silently vanish when they land on a stored
// entry.
func TestSpecialValuesPropagate(t *testing.T) {
	// A = [NaN 0; 0 Inf], B = I → C == A elementwise (NaN stays NaN).
	a := matrix.Identity(2)
	a.Val[0] = math.NaN()
	a.Val[1] = math.Inf(1)
	id := matrix.Identity(2)
	for _, tc := range allAlgorithms {
		got, err := Multiply(a, id, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(a, id, tc.stripes)})
		if err != nil {
			t.Fatalf("%v: %v", tc.name, err)
		}
		if got.NNZ() != 2 {
			t.Fatalf("%v: nnz = %d", tc.name, got.NNZ())
		}
		if !math.IsNaN(got.Val[0]) {
			t.Fatalf("%v: NaN lost: %v", tc.name, got.Val[0])
		}
		if !math.IsInf(got.Val[1], 1) {
			t.Fatalf("%v: Inf lost: %v", tc.name, got.Val[1])
		}
	}
}

// TestNumericCancellationKeptStructural: entries that sum to exactly zero
// remain structurally present (two-phase algorithms allocate symbolically),
// and all algorithms agree on the structure.
func TestNumericCancellationKeptStructural(t *testing.T) {
	// A row with +1 and -1 hitting the same output column.
	a := &matrix.CSR{
		Rows: 1, Cols: 2, RowPtr: []int64{0, 2}, ColIdx: []int32{0, 1},
		Val: []float64{1, -1}, Sorted: true,
	}
	b := &matrix.CSR{
		Rows: 2, Cols: 1, RowPtr: []int64{0, 1, 2}, ColIdx: []int32{0, 0},
		Val: []float64{1, 1}, Sorted: true,
	}
	for _, tc := range allAlgorithms {
		got, err := Multiply(a, b, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(a, b, tc.stripes)})
		if err != nil {
			t.Fatalf("%v: %v", tc.name, err)
		}
		if got.NNZ() != 1 || got.Val[0] != 0 {
			t.Fatalf("%v: cancelled entry handling: nnz=%d vals=%v", tc.name, got.NNZ(), got.Val)
		}
	}
}

// TestSingleRowSingleColumn exercises the degenerate shapes.
func TestSingleRowSingleColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	row := matrix.Random(1, 20, 0.5, rng)  // 1×20
	col := matrix.Random(20, 1, 0.5, rng)  // 20×1
	want := matrix.NaiveMultiply(row, col) // 1×1
	for _, tc := range allAlgorithms {
		got, err := Multiply(row, col, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(row, col, tc.stripes), Workers: 4})
		if err != nil {
			t.Fatalf("%v: %v", tc.name, err)
		}
		if !matrix.EqualApprox(want, got, 1e-12) {
			t.Fatalf("%v: outer-ish product wrong", tc.name)
		}
	}
	// Outer product: 20×1 · 1×20 → rank-1 20×20.
	want = matrix.NaiveMultiply(col, row)
	for _, tc := range allAlgorithms {
		got, err := Multiply(col, row, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(col, row, tc.stripes)})
		if err != nil {
			t.Fatalf("%v: %v", tc.name, err)
		}
		if !matrix.EqualApprox(want, got, 1e-12) {
			t.Fatalf("%v: rank-1 product wrong", tc.name)
		}
	}
}

// TestRowsOfZeros: interior empty rows and columns must not confuse the
// balanced partition or the prefix sums.
func TestRowsOfZeros(t *testing.T) {
	coo := matrix.NewCOO(50, 50)
	// Only rows 0 and 49 have entries.
	for j := int32(0); j < 50; j++ {
		coo.Append(0, j, 1)
		coo.Append(49, j, 1)
	}
	a := coo.ToCSR()
	want := matrix.NaiveMultiply(a, a)
	for _, tc := range allAlgorithms {
		got, err := Multiply(a, a, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(a, a, tc.stripes), Workers: 8})
		if err != nil {
			t.Fatalf("%v: %v", tc.name, err)
		}
		if !matrix.EqualApprox(want, got, 1e-12) {
			t.Fatalf("%v: sparse-rows product wrong", tc.name)
		}
	}
}
