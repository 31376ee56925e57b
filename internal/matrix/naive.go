package matrix

import (
	"math"

	"repro/internal/semiring"
)

// NaiveMultiply computes a·b sequentially with a map accumulator over
// ordinary (+, ×) arithmetic. It is the correctness oracle for the float64
// plus-times SpGEMM paths: slow but obviously right. The output has sorted,
// compacted rows.
func NaiveMultiply(a, b *CSR) *CSR {
	return NaiveMultiplyRing(semiring.PlusTimesF64{}, a, b)
}

// NaiveMultiplyRing computes a·b sequentially with a map accumulator over an
// arbitrary ring. It is the correctness oracle for the generic kernels and
// for semiring Zero-handling audits: an output entry exists iff at least one
// product landed on it (never dropped because its value equals ring.Zero(),
// never fabricated for untouched columns — the MinPlus +Inf discipline).
// The output has sorted rows; values equal to ring.Zero() are kept.
func NaiveMultiplyRing[V semiring.Value, R semiring.Ring[V]](ring R, a, b *CSRG[V]) *CSRG[V] {
	if a.Cols != b.Rows {
		panic("matrix: NaiveMultiply dimension mismatch")
	}
	out := &CSRG[V]{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int64, a.Rows+1), Sorted: true}
	acc := make(map[int32]V)
	for i := 0; i < a.Rows; i++ {
		clear(acc)
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			k := a.ColIdx[p]
			av := a.Val[p]
			blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
			for q := blo; q < bhi; q++ {
				c := b.ColIdx[q]
				prod := ring.Mul(av, b.Val[q])
				if cur, ok := acc[c]; ok {
					acc[c] = ring.Add(cur, prod)
				} else {
					acc[c] = prod
				}
			}
		}
		cols := make([]int32, 0, len(acc))
		for c := range acc {
			cols = append(cols, c)
		}
		// Insertion sort: rows are short in tests.
		for x := 1; x < len(cols); x++ {
			for y := x; y > 0 && cols[y] < cols[y-1]; y-- {
				cols[y], cols[y-1] = cols[y-1], cols[y]
			}
		}
		for _, c := range cols {
			out.ColIdx = append(out.ColIdx, c)
			out.Val = append(out.Val, acc[c])
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// Equal reports exact structural and numerical equality (same dimensions,
// row pointers, column order and values). Both matrices should be in the same
// canonical form for this to be meaningful.
func Equal[V semiring.Value](a, b *CSRG[V]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether a and b represent the same float64 matrix up to
// floating-point tolerance, after canonicalizing both (sorting rows and
// merging duplicates). Entries smaller than tol in both matrices are treated
// as zero, so algorithms that drop or keep numeric zeros both pass. Non-finite
// values are outside any tolerance: a NaN matches only a NaN, an infinity only
// the infinity of its sign, and neither matches a missing entry. Note the
// Compact canonicalization merges with + and drops machine zeros, which is
// only meaningful under plus-times; ring-aware comparisons (MinPlus et al.)
// must compare structure exactly instead (see spgemm/difftest).
func EqualApprox(a, b *CSR, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	ca := a.Clone().Compact()
	cb := b.Clone().Compact()
	for i := 0; i < ca.Rows; i++ {
		alo, ahi := ca.RowPtr[i], ca.RowPtr[i+1]
		blo, bhi := cb.RowPtr[i], cb.RowPtr[i+1]
		pa, pb := alo, blo
		for pa < ahi || pb < bhi {
			switch {
			case pb >= bhi || (pa < ahi && ca.ColIdx[pa] < cb.ColIdx[pb]):
				if !(math.Abs(ca.Val[pa]) <= tol) { // NaN is not within tol of a hole
					return false
				}
				pa++
			case pa >= ahi || cb.ColIdx[pb] < ca.ColIdx[pa]:
				if !(math.Abs(cb.Val[pb]) <= tol) {
					return false
				}
				pb++
			default:
				if !approxEqual(ca.Val[pa], cb.Val[pb], tol) {
					return false
				}
				pa++
				pb++
			}
		}
	}
	return true
}

// approxEqual is EqualApprox's predicate for an entry both sides hold: finite values within tol of
// each other, absolutely or relative to the larger; non-finite values by
// class and sign. Written as "not within" rather than "beyond" so that a NaN
// difference, for which every comparison is false, is a mismatch.
func approxEqual(va, vb, tol float64) bool {
	if math.IsNaN(va) || math.IsNaN(vb) {
		return math.IsNaN(va) && math.IsNaN(vb)
	}
	if math.IsInf(va, 0) || math.IsInf(vb, 0) {
		return va == vb
	}
	diff := math.Abs(va - vb)
	return diff <= tol || diff <= tol*math.Max(math.Abs(va), math.Abs(vb))
}
