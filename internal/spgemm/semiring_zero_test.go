package spgemm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// The min-plus semiring's additive identity is +Inf, not 0 — the sharpest
// test of the output-structure invariant every kernel must satisfy: an
// output entry exists iff at least one intermediate product landed on its
// position, regardless of the entry's value. A kernel that initializes
// accumulator slots to the machine zero and relies on "+= prod" fabricates
// min(0, d) = 0 distances; a kernel that drops entries whose value equals
// the ring's Zero() loses legitimately-unreachable (+Inf) path entries.
// Both bugs are invisible under plus-times (where Zero() == 0 == the
// machine zero) and catastrophic under min-plus.

// minPlusInput builds a matrix whose values are small path weights with
// some entries pinned to +Inf (edges "present in structure but unusable"),
// so products landing on +Inf are common.
func minPlusInput(rng *rand.Rand, n int, density float64) *matrix.CSR {
	m := matrix.Random(n, n, density, rng)
	for i := range m.Val {
		switch {
		case rng.Intn(4) == 0:
			m.Val[i] = math.Inf(1)
		case rng.Intn(3) == 0:
			m.Val[i] = 0 // zero-weight edge: value equals the machine zero
		default:
			m.Val[i] = float64(rng.Intn(100)) / 10
		}
	}
	return m
}

// sortedClone returns a row-sorted copy without compacting.
func sortedClone(m *matrix.CSR) *matrix.CSR {
	c := m.Clone()
	c.SortRows()
	return c
}

// requireExactStructure fails unless got and want agree entry-for-entry
// (structure AND bit-exact values; min and + are order-independent here).
func requireExactStructure(t *testing.T, alg Algorithm, got, want *matrix.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%v: shape %dx%d, want %dx%d", alg, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i <= got.Rows; i++ {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%v: RowPtr[%d]=%d, want %d (entries dropped or fabricated)",
				alg, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for p := range got.ColIdx {
		if got.ColIdx[p] != want.ColIdx[p] {
			t.Fatalf("%v: ColIdx[%d]=%d, want %d", alg, p, got.ColIdx[p], want.ColIdx[p])
		}
		// NaN never occurs under min-plus on these inputs, so == is exact.
		if got.Val[p] != want.Val[p] {
			t.Fatalf("%v: Val[%d]=%v, want %v", alg, p, got.Val[p], want.Val[p])
		}
	}
}

func TestMinPlusZeroHandlingAllKernels(t *testing.T) {
	ring := semiring.MinPlusF64{}
	rng := rand.New(rand.NewSource(909))
	algs := []Algorithm{AlgHash, AlgHeap}
	for trial := 0; trial < 8; trial++ {
		a := minPlusInput(rng, 40, 0.15)
		b := minPlusInput(rng, 40, 0.15)
		want := matrix.NaiveMultiplyRing(ring, a, b)
		// Sanity: the scenario must actually exercise both hazards.
		if trial == 0 {
			hasInf := false
			for _, v := range want.Val {
				if math.IsInf(v, 1) {
					hasInf = true
					break
				}
			}
			if !hasInf {
				t.Fatal("test inputs produced no +Inf output entries; scenario is vacuous")
			}
		}
		for _, alg := range algs {
			got, err := MultiplyRing(ring, a, b, &OptionsG[float64]{Algorithm: alg, Workers: 1 + trial%4})
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			requireExactStructure(t, alg, sortedClone(got), want)
		}
	}
}

// TestMinPlusZeroHandlingMasked: the pattern count reads no value, so an
// entry holding min-plus's Zero() (+Inf) or the machine zero counts like any
// other, in the operands and in the mask alike: the count on minPlusInput
// operands and mask is the count on the same patterns with every value 1,
// and the pattern oracle's.
func TestMinPlusZeroHandlingMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(910))
	a := minPlusInput(rng, 30, 0.2)
	b := minPlusInput(rng, 30, 0.2)
	mask := minPlusInput(rng, 30, 0.5)
	one := func(float64) float64 { return 1 }
	want, err := MaskedCount(matrix.MapValues(a, one), matrix.MapValues(b, one), matrix.MapValues(mask, one), nil)
	if err != nil {
		t.Fatal(err)
	}
	if oracle := patternCount(a, b, mask); want == 0 || want != oracle {
		t.Fatalf("unit values count %d, the oracle %d; the test needs a non-zero count", want, oracle)
	}
	for _, workers := range []int{1, 2} {
		got, err := MaskedCount(a, b, mask, &Options{Algorithm: AlgHash, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("W=%d: counted %d on min-plus values, %d on unit ones", workers, got, want)
		}
	}
}
