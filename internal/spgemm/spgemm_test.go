package spgemm

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// allAlgorithms lists every concrete algorithm with its capabilities, and
// Hash once more cut into budget stripes ("sharded": finer than one stripe
// per worker, as a product past its ShardMemBudget is).
var allAlgorithms = []struct {
	name          string
	alg           Algorithm
	stripes       int  // the stripe count stripeBudget asks for; 0 is the product's own cut
	unsortedOut   bool // supports Unsorted option natively
	unsortedInput bool // accepts unsorted input rows
}{
	{"hash", AlgHash, 0, true, true},
	{"heap", AlgHeap, 0, false, false},
	{"sharded", AlgHash, 3, true, true},
}

func randPair(rng *rand.Rand, maxDim int, density float64) (*matrix.CSR, *matrix.CSR) {
	m := 1 + rng.Intn(maxDim)
	k := 1 + rng.Intn(maxDim)
	n := 1 + rng.Intn(maxDim)
	return matrix.Random(m, k, density, rng), matrix.Random(k, n, density, rng)
}

func TestAllAlgorithmsMatchNaiveSorted(t *testing.T) {
	for _, tc := range allAlgorithms {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			for trial := 0; trial < 25; trial++ {
				a, b := randPair(rng, 40, 0.15)
				want := matrix.NaiveMultiply(a, b)
				got, err := Multiply(a, b, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(a, b, tc.stripes), Workers: 1 + trial%4})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("trial %d: invalid output: %v", trial, err)
				}
				if !got.IsSortedRows() {
					t.Fatalf("trial %d: sorted output requested but rows unsorted", trial)
				}
				if !matrix.EqualApprox(want, got, 1e-10) {
					t.Fatalf("trial %d: %v product disagrees with naive (%v × %v)", trial, tc.name, a, b)
				}
			}
		})
	}
}

func TestAllAlgorithmsMatchNaiveUnsortedOutput(t *testing.T) {
	for _, tc := range allAlgorithms {
		if !tc.unsortedOut {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(102))
			for trial := 0; trial < 15; trial++ {
				a, b := randPair(rng, 40, 0.15)
				want := matrix.NaiveMultiply(a, b)
				got, err := Multiply(a, b, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(a, b, tc.stripes), Unsorted: true, Workers: 3})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if got.Sorted {
					t.Fatal("unsorted output should not claim Sorted")
				}
				if !matrix.EqualApprox(want, got, 1e-10) {
					t.Fatalf("trial %d: %v unsorted product disagrees with naive", trial, tc.name)
				}
			}
		})
	}
}

func TestUnsortedInputAccepted(t *testing.T) {
	// The hash family must accept randomly permuted (unsorted) inputs — the
	// paper's unsorted evaluation mode.
	rng := rand.New(rand.NewSource(103))
	a := matrix.Random(30, 30, 0.2, rng)
	perm := matrix.RandomPermutation(30, rng)
	ap := a.PermuteCols(perm) // unsorted rows
	want := matrix.NaiveMultiply(ap, ap)
	for _, tc := range allAlgorithms {
		if !tc.unsortedInput {
			continue
		}
		got, err := Multiply(ap, ap, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(ap, ap, tc.stripes), Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", tc.name, err)
		}
		if !matrix.EqualApprox(want, got, 1e-10) {
			t.Fatalf("%v: wrong product on unsorted input", tc.name)
		}
	}
}

func TestSortedInputRequiredErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	a := matrix.Random(10, 10, 0.3, rng)
	b := a.PermuteCols(matrix.RandomPermutation(10, rng)) // unsorted
	if _, err := Multiply(a, b, &Options{Algorithm: AlgHeap}); err == nil {
		t.Fatal("heap: expected error on unsorted B")
	}
}

func TestDimensionMismatch(t *testing.T) {
	a := matrix.Identity(3)
	b := matrix.Identity(4)
	if _, err := Multiply(a, b, nil); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestEmptyMatrices(t *testing.T) {
	for _, tc := range allAlgorithms {
		empty := matrix.NewCSR(5, 5)
		got, err := Multiply(empty, empty, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(empty, empty, tc.stripes)})
		if err != nil {
			t.Fatalf("%v: %v", tc.name, err)
		}
		if got.NNZ() != 0 || got.Rows != 5 || got.Cols != 5 {
			t.Fatalf("%v: empty product wrong: %v", tc.name, got)
		}
	}
}

func TestEmptyTimesNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	a, b := matrix.NewCSR(4, 5), matrix.Random(5, 7, 0.4, rng)
	for _, tc := range allAlgorithms {
		got, err := Multiply(a, b, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(a, b, tc.stripes)})
		if err != nil {
			t.Fatalf("%v: %v", tc.name, err)
		}
		if got.NNZ() != 0 {
			t.Fatalf("%v: nnz = %d", tc.name, got.NNZ())
		}
	}
}

func TestIdentityProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	m, id := matrix.Random(25, 25, 0.2, rng), matrix.Identity(25)
	for _, tc := range allAlgorithms {
		got, err := Multiply(m, id, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(m, id, tc.stripes)})
		if err != nil {
			t.Fatalf("%v: %v", tc.name, err)
		}
		if !matrix.EqualApprox(m, got, 1e-12) {
			t.Fatalf("%v: M*I != M", tc.name)
		}
	}
}

func TestRectangularShapes(t *testing.T) {
	// Tall-skinny and short-fat products (the Section 5.5 use case shape).
	rng := rand.New(rand.NewSource(108))
	a := matrix.Random(60, 40, 0.1, rng)
	b := matrix.Random(40, 5, 0.3, rng)
	want := matrix.NaiveMultiply(a, b)
	for _, tc := range allAlgorithms {
		got, err := Multiply(a, b, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(a, b, tc.stripes), Workers: 4})
		if err != nil {
			t.Fatalf("%v: %v", tc.name, err)
		}
		if !matrix.EqualApprox(want, got, 1e-10) {
			t.Fatalf("%v: wrong rectangular product", tc.name)
		}
	}
}

func TestSemiringMinPlus(t *testing.T) {
	// Min-plus matrix "product" computes single-hop shortest path combos;
	// verify against a dense reference.
	rng := rand.New(rand.NewSource(109))
	a := matrix.Random(12, 12, 0.4, rng)
	b := matrix.Random(12, 12, 0.4, rng)
	// Make all values positive path lengths.
	for i := range a.Val {
		a.Val[i] = float64(1 + rng.Intn(9))
	}
	for i := range b.Val {
		b.Val[i] = float64(1 + rng.Intn(9))
	}
	// Dense min-plus reference over the sparsity pattern.
	ref := make(map[[2]int32]float64)
	for i := 0; i < a.Rows; i++ {
		acols, avals := a.Row(i)
		for t2, k := range acols {
			bcols, bvals := b.Row(int(k))
			for t3, j := range bcols {
				key := [2]int32{int32(i), j}
				v := avals[t2] + bvals[t3]
				if old, ok := ref[key]; !ok || v < old {
					ref[key] = v
				}
			}
		}
	}
	for _, tc := range allAlgorithms {
		alg := tc.name
		got, err := MultiplyRing(semiring.MinPlusF64{}, a, b, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(a, b, tc.stripes), Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		var count int64
		for i := 0; i < got.Rows; i++ {
			cols, vals := got.Row(i)
			for t2, c := range cols {
				want, ok := ref[[2]int32{int32(i), c}]
				if !ok {
					t.Fatalf("%v: spurious entry (%d,%d)", alg, i, c)
				}
				if vals[t2] != want {
					t.Fatalf("%v: (%d,%d) = %v, want %v", alg, i, c, vals[t2], want)
				}
				count++
			}
		}
		if count != int64(len(ref)) {
			t.Fatalf("%v: %d entries, want %d", alg, count, len(ref))
		}
	}
}

func TestSemiringOrAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	a := matrix.Random(15, 15, 0.3, rng)
	want := matrix.NaiveMultiply(a, a) // plus-times pattern == or-and pattern
	ab := matrix.MapValues(a, func(float64) bool { return true })
	for _, alg := range []Algorithm{AlgHash, AlgHeap} {
		got, err := MultiplyRing(semiring.OrAndBool{}, ab, ab, &OptionsG[bool]{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got.NNZ() != want.NNZ() {
			t.Fatalf("%v: nnz = %d, want %d", alg, got.NNZ(), want.NNZ())
		}
		for _, v := range got.Val {
			if !v {
				t.Fatalf("%v: boolean product stored a false", alg)
			}
		}
	}
}

func TestMaskedMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 10; trial++ {
		a, b := randPair(rng, 30, 0.2)
		mask := matrix.Random(a.Rows, b.Cols, 0.3, rng)
		full := matrix.NaiveMultiply(a, b)
		// Reference: full product filtered to mask pattern.
		wantD := full.ToDense()
		maskD := mask.ToDense()
		for i := 0; i < wantD.Rows; i++ {
			for j := 0; j < wantD.Cols; j++ {
				if maskD.At(i, j) == 0 {
					wantD.Set(i, j, 0)
				}
			}
		}
		got, err := Multiply(a, b, &Options{Algorithm: AlgHash, Mask: mask, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !got.ToDense().EqualApprox(wantD, 1e-10) {
			t.Fatalf("trial %d: masked product wrong", trial)
		}
		// No entry outside the mask.
		for i := 0; i < got.Rows; i++ {
			cols, _ := got.Row(i)
			for _, c := range cols {
				if maskD.At(i, int(c)) == 0 {
					t.Fatalf("entry (%d,%d) outside mask", i, c)
				}
			}
		}
	}
}

// TestAutoWithMaskResolvesToHash: AlgAuto must not hand a masked product to
// a kernel that cannot fuse the mask. On this input the unmasked Table 4
// recipe answers Heap for the sorted request, which used to fail the call.
func TestAutoWithMaskResolvesToHash(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	a := gen.ER(9, 2, rng)
	if alg := Recommend(a, a, true, UseSquare); alg != AlgHeap {
		t.Fatalf("recipe answers %v here; the test needs an input it answers heap on", alg)
	}
	pattern := a.Clone()
	for i := range pattern.Val {
		pattern.Val[i] = 1
	}
	want, err := matrix.Hadamard(matrix.NaiveMultiply(a, a), pattern)
	if err != nil {
		t.Fatal(err)
	}
	for _, unsorted := range []bool{false, true} {
		var st ExecStats
		got, err := Multiply(a, a, &Options{Mask: a, Unsorted: unsorted, Workers: 2, Stats: &st})
		if err != nil {
			t.Fatalf("unsorted=%v: %v", unsorted, err)
		}
		if st.Algorithm != AlgHash {
			t.Errorf("unsorted=%v: auto with a mask ran %v, want hash", unsorted, st.Algorithm)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("unsorted=%v: %v", unsorted, err)
		}
		if !matrix.EqualApprox(want, got, 1e-9) {
			t.Fatalf("unsorted=%v: masked auto product differs from NaiveMultiply .* mask", unsorted)
		}
	}
}

func TestMaskRejectedForOtherAlgorithms(t *testing.T) {
	// One masked kernel: every algorithm but Hash gets the same error.
	a := matrix.Identity(4)
	_, err := Multiply(a, a, &Options{Algorithm: AlgHeap, Mask: a})
	if err == nil || !strings.Contains(err.Error(), "mask is only supported by hash") {
		t.Fatalf("heap with a mask: err = %v, want the mask-unsupported error", err)
	}
}

// TestMaskedRowSumsRejects: MaskedRowSums runs MultiplyRing's own mask and
// sink checks, and a missing mask is an error of its own.
func TestMaskedRowSumsRejects(t *testing.T) {
	a := matrix.Identity(4)
	sink := NewSpillSink[float64](t.TempDir(), 0)
	defer sink.Close()
	for _, tc := range []struct {
		name string
		opt  *Options
	}{
		{"nil options", nil},
		{"no mask", &Options{Algorithm: AlgHash}},
		{"heap", &Options{Algorithm: AlgHeap, Mask: a}},
		{"mask shape", &Options{Mask: matrix.Identity(5)}},
		{"sink", &Options{Mask: a, ShardSink: sink}},
	} {
		if _, err := MaskedRowSums(semiring.PlusTimesF64{}, a, a, tc.opt); err == nil {
			t.Errorf("%s: MaskedRowSums returned no error", tc.name)
		}
	}
}

// TestMaskedRowSumsStoresNoProduct: the row sums are the product's, fold for
// fold, yet no output array is drawn, no phase sizes or assembles one, and
// through a reused Context a call allocates the returned slice and no more
// than the closures of its parallel region.
func TestMaskedRowSumsStoresNoProduct(t *testing.T) {
	a := gen.RMAT(9, 8, gen.G500Params, rand.New(rand.NewSource(41)))
	for _, workers := range []int{1, 2} {
		ctx := NewContext()
		prod, err := Multiply(a, a, &Options{Mask: a, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		drawn, drawnBytes := mOutputAllocated.Value(), mOutputAllocatedBytes.Value()
		var st ExecStats
		sums, err := MaskedRowSums(semiring.PlusTimesF64{}, a, a, &Options{Mask: a, Workers: workers, Context: ctx, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if d, b := mOutputAllocated.Value()-drawn, mOutputAllocatedBytes.Value()-drawnBytes; d != 0 || b != 0 {
			t.Errorf("W=%d: %d output arrays (%d B) drawn, want none", workers, d, b)
		}
		if st.Algorithm != AlgHash || st.Phases[PhaseSymbolic] != 0 || st.Phases[PhaseAlloc] != 0 || st.Phases[PhaseAssemble] != 0 {
			t.Errorf("W=%d: ran %v with symbolic %v, alloc %v, assemble %v; want hash with none of them", workers,
				st.Algorithm, st.Phases[PhaseSymbolic], st.Phases[PhaseAlloc], st.Phases[PhaseAssemble])
		}
		for i := range sums {
			var want float64
			for _, v := range prod.Val[prod.RowPtr[i]:prod.RowPtr[i+1]] {
				want += v
			}
			if math.Float64bits(sums[i]) != math.Float64bits(want) {
				t.Fatalf("W=%d: row %d sums to %v, want %v", workers, i, sums[i], want)
			}
		}
		opt := &Options{Mask: a, Workers: workers, Context: ctx}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 5 {
			if _, err := MaskedRowSums(semiring.PlusTimesF64{}, a, a, opt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if perCall, limit := (after.TotalAlloc-before.TotalAlloc)/5, uint64(a.Rows*8+1<<10); perCall > limit {
			t.Errorf("W=%d: %d B per call through a reused Context, want <= %d (the sums)", workers, perCall, limit)
		}
	}
}

func TestMaskDimensionMismatch(t *testing.T) {
	a := matrix.Identity(4)
	m := matrix.Identity(5)
	if _, err := Multiply(a, a, &Options{Algorithm: AlgHash, Mask: m}); err == nil {
		t.Fatal("expected mask dimension error")
	}
}

func TestNilOptionsDefaults(t *testing.T) {
	a := matrix.Identity(6)
	got, err := Multiply(a, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(a, got, 0) {
		t.Fatal("I*I != I")
	}
}

func TestSymbolicCountsMatchNumericNNZ(t *testing.T) {
	// The two-phase algorithms allocate exactly; verify rowptr equals the
	// reference nnz structure (no over-allocation leaks into the result).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randPair(rng, 30, 0.2)
		want := matrix.SymbolicNNZ(a, b)
		c, err := Multiply(a, b, &Options{Algorithm: AlgHash})
		if err != nil {
			return false
		}
		return c.NNZ() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: all algorithms produce identical results on the same input.
func TestAlgorithmsAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randPair(rng, 25, 0.2)
		base, err := Multiply(a, b, &Options{Algorithm: AlgHash})
		if err != nil {
			return false
		}
		for _, tc := range allAlgorithms[1:] {
			got, err := Multiply(a, b, &Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(a, b, tc.stripes), Workers: 1 + rng.Intn(4)})
			if err != nil || !matrix.EqualApprox(base, got, 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerCountsDoNotChangeResult(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	a, b := randPair(rng, 60, 0.1)
	want, _ := Multiply(a, b, &Options{Algorithm: AlgHash, Workers: 1})
	for _, workers := range []int{2, 3, 7, 16, 64, 1000} {
		for _, alg := range []Algorithm{AlgHash, AlgHeap} {
			got, err := Multiply(a, b, &Options{Algorithm: alg, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d %v: %v", workers, alg, err)
			}
			if !matrix.EqualApprox(want, got, 1e-10) {
				t.Fatalf("workers=%d %v: result changed", workers, alg)
			}
		}
	}
}

func TestSupportsUnsortedTable(t *testing.T) {
	for _, tc := range allAlgorithms {
		if SupportsUnsorted(tc.alg) != tc.unsortedOut || RequiresSortedInput(tc.alg) == tc.unsortedInput {
			t.Fatalf("%v: SupportsUnsorted/RequiresSortedInput disagree with the capability table", tc.name)
		}
	}
	if !RequiresSortedInput(AlgHeap) || RequiresSortedInput(AlgHash) {
		t.Fatal("sorted-input requirements wrong")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	for _, tc := range allAlgorithms {
		if tc.alg.String() == "unknown" {
			t.Fatalf("missing name for %d", tc.alg)
		}
	}
	if AlgAuto.String() != "auto" || Algorithm(99).String() != "unknown" {
		t.Fatal("string mapping wrong")
	}
}
