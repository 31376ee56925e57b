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

// TestMinPlusZeroHandlingMasked covers the masked row function (AlgHash
// only), where a product lands on the slot of its mask entry: entries whose
// value is +Inf must survive exactly when the mask admits them.
func TestMinPlusZeroHandlingMasked(t *testing.T) {
	ring := semiring.MinPlusF64{}
	rng := rand.New(rand.NewSource(910))
	a := minPlusInput(rng, 30, 0.2)
	b := minPlusInput(rng, 30, 0.2)
	mask := matrix.Random(30, 30, 0.5, rng)
	full := matrix.NaiveMultiplyRing(ring, a, b)
	// Expected pattern derived by hand rather than via HadamardG (which
	// would drop intersection entries whose value is the storage zero): the
	// mask keeps an entry iff the full product has it AND the mask has the
	// position, with the full product's value — even 0 or +Inf.
	want := maskFilter(full, mask)
	for _, unsorted := range []bool{false, true} {
		got, err := MultiplyRing(ring, a, b, &OptionsG[float64]{Algorithm: AlgHash, Mask: mask, Unsorted: unsorted})
		if err != nil {
			t.Fatal(err)
		}
		requireExactStructure(t, AlgHash, sortedClone(got), want)
	}
}

// maskFilter keeps full's entries at positions present in mask.
func maskFilter(full, mask *matrix.CSR) *matrix.CSR {
	out := &matrix.CSR{Rows: full.Rows, Cols: full.Cols, RowPtr: make([]int64, full.Rows+1), Sorted: true}
	ms := sortedClone(mask)
	for i := 0; i < full.Rows; i++ {
		fc, fv := full.Row(i)
		mc, _ := ms.Row(i)
		p, q := 0, 0
		for p < len(fc) && q < len(mc) {
			switch {
			case fc[p] < mc[q]:
				p++
			case mc[q] < fc[p]:
				q++
			default:
				out.ColIdx = append(out.ColIdx, fc[p])
				out.Val = append(out.Val, fv[p])
				p++
				q++
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}
