package difftest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/spgemm"
)

// TestDifferentialSuite cross-checks every algorithm against the oracle over
// the full generated suite, with sorted and unsorted output requests and
// both serial and parallel worker counts. Runs cleanly under -race: worker
// counters and phase timers must not introduce data races. The special-value
// cases ride along: the oracle's predicate matches NaN and ±Inf by class and
// sign (matrix.EqualApprox), so a kernel that lost or invented one fails here.
func TestDifferentialSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, c := range append(Cases(rng), SpecialValueCases(rng)...) {
		for _, alg := range Algorithms {
			for _, unsorted := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					if err := Check(c, alg, unsorted, workers); err != nil {
						t.Error(err)
					}
				}
			}
		}
	}
}

// TestDifferentialWithStats repeats a slice of the suite with ExecStats
// enabled, so the instrumented paths (not just the nil-Stats fast paths) are
// exercised under -race.
func TestDifferentialWithStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range Cases(rng) {
		for _, alg := range Algorithms {
			var st spgemm.ExecStats
			opt := &spgemm.Options{Algorithm: alg, Workers: 4, Stats: &st}
			got, err := spgemm.Multiply(c.A, c.B, opt)
			if err != nil {
				if spgemm.RequiresSortedInput(alg) && !c.B.Sorted {
					continue
				}
				t.Fatalf("%s/%v: %v", c.Name, alg, err)
			}
			if err := Equivalent(got, matrix.NaiveMultiply(c.A, c.B)); err != nil {
				t.Errorf("%s/%v: %v", c.Name, alg, err)
			}
			if st.Algorithm == spgemm.AlgAuto {
				t.Errorf("%s/%v: Stats.Algorithm not resolved past AlgAuto", c.Name, alg)
			}
		}
	}
}

// TestAutoSucceedsOnEverySortednessCombination is the acceptance criterion
// of the recipe bugfix: Multiply with AlgAuto must succeed — never "requires
// sorted input rows" — for every (sorted, unsorted) combination of A and B.
func TestAutoSucceedsOnEverySortednessCombination(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ER(7, 4, rng)
	gu := gen.Unsorted(g, rng)
	want := matrix.NaiveMultiply(g, g)
	for _, a := range []*matrix.CSR{g, gu} {
		for _, b := range []*matrix.CSR{g, gu} {
			for _, unsorted := range []bool{false, true} {
				got, err := spgemm.Multiply(a, b, &spgemm.Options{Algorithm: spgemm.AlgAuto, Unsorted: unsorted})
				if err != nil {
					t.Fatalf("AlgAuto a.Sorted=%v b.Sorted=%v unsorted=%v: %v", a.Sorted, b.Sorted, unsorted, err)
				}
				if err := Equivalent(got, want); err != nil {
					t.Errorf("AlgAuto a.Sorted=%v b.Sorted=%v unsorted=%v: %v", a.Sorted, b.Sorted, unsorted, err)
				}
			}
		}
	}
}

// TestOutputContract pins the documented explicit-zero / duplicate-merge
// contract with hand-built inputs, through the same canonical predicate the
// whole harness uses.
func TestOutputContract(t *testing.T) {
	// Duplicate COO entries collapse before the multiply; the product of the
	// merged matrix is what every algorithm must return.
	dup := matrix.NewCOO(2, 2)
	dup.Append(0, 0, 1)
	dup.Append(0, 0, 2) // merges to 3
	dup.Append(1, 1, 5)
	a := dup.ToCSR()
	if a.NNZ() != 2 {
		t.Fatalf("COO duplicate merge: nnz = %d, want 2", a.NNZ())
	}

	// Cancellation: row [3 -3] times equal columns gives exact zero; the
	// predicate accepts algorithms that keep it explicitly and ones that drop
	// it.
	cancel := matrix.NewCOO(1, 2)
	cancel.Append(0, 0, 3)
	cancel.Append(0, 1, -3)
	ones := matrix.NewCOO(2, 2)
	ones.Append(0, 0, 1)
	ones.Append(0, 1, 1)
	ones.Append(1, 0, 1)
	ones.Append(1, 1, 1)
	ca, cb := cancel.ToCSR(), ones.ToCSR()
	want := matrix.NaiveMultiply(ca, cb)

	for _, alg := range Algorithms {
		got, err := spgemm.Multiply(a, a, &spgemm.Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v dup: %v", alg, err)
		}
		if err := Equivalent(got, matrix.NaiveMultiply(a, a)); err != nil {
			t.Errorf("%v dup: %v", alg, err)
		}
		got, err = spgemm.Multiply(ca, cb, &spgemm.Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v cancel: %v", alg, err)
		}
		if err := Equivalent(got, want); err != nil {
			t.Errorf("%v cancel: %v", alg, err)
		}
	}
}

// TestInvariantsRejectsBadOutputs sanity-checks the predicate itself: a
// harness whose checker accepts anything proves nothing.
func TestInvariantsRejectsBadOutputs(t *testing.T) {
	good := &matrix.CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 2, 3},
		ColIdx: []int32{0, 2, 1}, Val: []float64{1, 2, 3}, Sorted: true}
	if err := Invariants(good); err != nil {
		t.Fatalf("good matrix rejected: %v", err)
	}
	bad := []*matrix.CSR{
		{Rows: 2, Cols: 3, RowPtr: []int64{0, 2}, ColIdx: []int32{0, 2}, Val: []float64{1, 2}},               // short RowPtr
		{Rows: 1, Cols: 3, RowPtr: []int64{0, 2}, ColIdx: []int32{0, 5}, Val: []float64{1, 2}},               // col out of range
		{Rows: 1, Cols: 3, RowPtr: []int64{0, 2}, ColIdx: []int32{1, 1}, Val: []float64{1, 2}},               // duplicate col
		{Rows: 1, Cols: 3, RowPtr: []int64{0, 2}, ColIdx: []int32{2, 0}, Val: []float64{1, 2}, Sorted: true}, // dishonest Sorted
		{Rows: 2, Cols: 3, RowPtr: []int64{0, 2, 1}, ColIdx: []int32{0, 1}, Val: []float64{1, 2}},            // non-monotone
		{Rows: 1, Cols: 3, RowPtr: []int64{0, 1}, ColIdx: []int32{0, 1}, Val: []float64{1, 2}},               // length mismatch
	}
	for i, m := range bad {
		if err := Invariants(m); err == nil {
			t.Errorf("bad matrix %d accepted", i)
		}
	}
	if matrix.EqualApprox(good, &matrix.CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 2, 3},
		ColIdx: []int32{0, 2, 1}, Val: []float64{1, 2, 4}, Sorted: true}, Tol) {
		t.Error("EqualApprox accepted differing values")
	}
}

// TestDifferentialContextReuse drives every algorithm over the whole suite
// through ONE shared Context per algorithm: cached accumulators and
// bookkeeping grown by one case must never corrupt the next (including the
// degenerate 0×0 and empty-row shapes, and the -0, ±Inf and NaN cases, whose
// values must come through a warm Context bit-identical to a fresh call).
func TestDifferentialContextReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cases := append(Cases(rng), SpecialValueCases(rng)...)
	for _, alg := range Algorithms {
		ctx := spgemm.NewContext()
		for _, c := range cases {
			for _, unsorted := range []bool{false, true} {
				if err := CheckContext(c, alg, unsorted, 3, ctx); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestDifferentialSharded pins the striped Hash product's bit-identity
// contract against Hash's own cut across the whole suite and the special-value cases (-0,
// ±Inf and NaN survive a stripe boundary like any other value), sorted and
// unsorted output, at every kind of cut a budget makes: one stripe (at one
// worker; a budget cuts at least one per worker), one per worker (the
// paper's static schedule, where the product is under W·minStripeFlop; a
// larger one claims a finer cut), more stripes than workers (the dynamic
// one), and one stripe per row — each also through the out-of-core SpillSink
// repeat at toy scale, which checks the cut has at least the stripes asked
// for (see CheckSharded).
func TestDifferentialSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	dir := t.TempDir()
	for _, c := range append(Cases(rng), SpecialValueCases(rng)...) {
		for _, workers := range []int{1, 2, 3} {
			for _, stripes := range []int{1, workers, 3 * workers, c.A.Rows} {
				for _, unsorted := range []bool{false, true} {
					if err := CheckSharded(c, unsorted, workers, stripes, dir); err != nil {
						t.Error(err)
					}
				}
			}
		}
	}
}

// TestSpecialValueCases pins what the hand-built special-value cases are
// for: their products, from the one-shot Hash kernel, hold exactly the
// signed zeros, infinities and NaNs their comments promise — so a Plan leg
// that is bit-identical on them has handled each.
func TestSpecialValueCases(t *testing.T) {
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	want := map[string][]float64{
		"signed-zero":        {negZero, 0, 10, negZero, negZero, 5, 0, negZero, 0},
		"non-finite":         {nan, inf, inf, nan, nan, inf, nan, -inf, -inf},
		"signed-zero-column": {negZero, negZero, 0, 0},
	}
	for _, c := range SpecialValueCases(rand.New(rand.NewSource(1))) {
		w, ok := want[c.Name]
		if !ok {
			continue
		}
		got, err := spgemm.Multiply(c.A, c.B, &spgemm.Options{Algorithm: spgemm.AlgHash})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Val) != len(w) {
			t.Fatalf("%s: %d entries, want %d (explicit zeros must be kept)", c.Name, len(got.Val), len(w))
		}
		for i := range w {
			if !sameBits(got.Val[i], w[i]) {
				t.Errorf("%s: Val[%d] = %v, want %v", c.Name, i, got.Val[i], w[i])
			}
		}
	}
}

// TestDifferentialPlanReuse runs the plan-reuse soundness check (repeated
// bit-identical executions through the kernel and then through the replay
// map, value perturbation, structural-staleness detection) for every
// algorithm across the suite and the special-value cases; Hash also runs cut
// finer than one stripe per worker (see CheckPlan).
func TestDifferentialPlanReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, alg := range kernels {
		for _, c := range append(Cases(rng), SpecialValueCases(rng)...) {
			for _, unsorted := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					if err := CheckPlan(c, alg, unsorted, workers); err != nil {
						t.Error(err)
					}
				}
			}
		}
	}
}
