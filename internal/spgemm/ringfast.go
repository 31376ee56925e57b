package spgemm

import (
	"math"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Hand-devirtualized float64 plus-times inner loops.
//
// The generic kernels are shape-stenciled, not fully monomorphized: Go
// compiles one body per GC shape and passes the ring's method set through a
// runtime dictionary, so ring.Add/ring.Mul in the inner loops are indirect
// calls (objdump shows CALL AX at the product sites) that the inliner never
// sees — each dictionary call also costs ~57 inliner units, so any generic
// helper wrapping two of them is over the 80-unit budget before it starts.
// For the flagship ring that every float64 Multiply uses, that indirection
// taxes the exact two instructions the paper's kernels are built around.
//
// The fix is manual monomorphization: each worker asserts once, outside the
// hot loop, whether its ring is semiring.PlusTimesF64, and routes whole rows
// through the concrete loops below. The ring operations are still written as
// method calls on a concrete PlusTimesF64 value — not bare + and * — so the
// compiler reports "inlining call to semiring.PlusTimesF64.Add/.Mul" for
// these sites and `spgemm-lint -mode=budget` can require those lines to be
// present: deleting or regressing the fast path fails CI. Fold order is
// identical to the generic loops, so results are bit-identical
// (TestRingFastEquivalence).
//
// The type assertions live in un-annotated setup code on purpose: an
// interface conversion inside a //spgemm:hotpath body would trip the
// deferhot analyzer. HashVector's numeric pass (hashVecRows) keeps the
// dictionary path; its chunked table has a different Upsert contract, and
// the recipe never picks it.

// ptF64Hash reports whether this hash-kernel instantiation is the float64
// plus-times flagship and, if so, returns the concretely-typed views of the
// operands, the accumulators (either may be nil) and the output values that
// the fast path needs. The assertions are exhaustive only in the ring: if
// ring is PlusTimesF64 then V = float64 and the remaining assertions cannot
// fail (the ok result guards against that invariant breaking silently).
func ptF64Hash[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], spa *accum.SPAG[V], table *accum.HashTableG[V], vals []V) (*matrix.CSR, *matrix.CSR, *accum.SPA, *accum.HashTable, []float64, bool) {
	if _, ok := any(ring).(semiring.PlusTimesF64); !ok {
		return nil, nil, nil, nil, nil, false
	}
	fa, aok := any(a).(*matrix.CSR)
	fb, bok := any(b).(*matrix.CSR)
	fs, sok := any(spa).(*accum.SPA)
	ft, tok := any(table).(*accum.HashTable)
	fv, vok := any(vals).([]float64)
	if !(aok && bok && sok && tok && vok) {
		return nil, nil, nil, nil, nil, false
	}
	return fa, fb, fs, ft, fv, true
}

// hashRowNumericF64 is hashRowNumeric (hashrow.go) with plus-times float64
// arithmetic. The Mul/Add calls below must inline (required entries in
// the [inline] section of lint/budget.txt).
//
//spgemm:hotpath
func hashRowNumericF64(table *accum.HashTable, a, b *matrix.CSR, i int, cols []int32, vals []float64, direct, sorted bool) {
	var ring semiring.PlusTimesF64
	// Row sub-slices collapse the per-entry CSR bounds checks into one
	// slice check per row segment (lint/budget.txt [bce] budgets the rest).
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	acols := a.ColIdx[alo:ahi]
	avals := a.Val[alo:ahi]
	if direct {
		for x, k := range acols {
			av := avals[x]
			brp := b.RowPtr[k : int(k)+2]
			bvals := b.Val[brp[0]:brp[1]]
			n := copy(cols, b.ColIdx[brp[0]:brp[1]])
			out := vals[:n]
			for y := range out {
				out[y] = ring.Mul(av, bvals[y])
			}
			cols, vals = cols[n:], vals[n:]
		}
		return
	}
	table.Reset()
	for x, k := range acols {
		av := avals[x]
		brp := b.RowPtr[k : int(k)+2]
		bvals := b.Val[brp[0]:brp[1]]
		for y, col := range b.ColIdx[brp[0]:brp[1]] {
			prod := ring.Mul(av, bvals[y])
			slot, fresh := table.Upsert(col)
			if fresh {
				*slot = prod
			} else {
				*slot = ring.Add(*slot, prod)
			}
		}
	}
	if sorted {
		table.ExtractSorted(cols, vals)
	} else {
		table.ExtractUnsorted(cols, vals)
	}
}

// spaRowNumericF64 is spaRowNumeric (hashrow.go) with plus-times float64
// arithmetic. Its Mul and Add must inline (lint/budget.txt [inline]).
//
//spgemm:hotpath
func spaRowNumericF64(spa *accum.SPA, a, b *matrix.CSR, i, from, seeded int, cols []int32, vals []float64, sorted bool) int {
	var ring semiring.PlusTimesF64
	arp := a.RowPtr[i : i+2]
	acols := a.ColIdx[arp[0]+int64(from) : arp[1]]
	avals := a.Val[arp[0]+int64(from) : arp[1]]
	dense, stamp, gen := spa.Row(cols[:seeded], vals)
	stamp = stamp[:len(dense)] // one check per product covers both
	n := seeded
	for x, k := range acols {
		av := avals[x]
		brp := b.RowPtr[k : int(k)+2]
		bvals := b.Val[brp[0]:brp[1]]
		for y, col := range b.ColIdx[brp[0]:brp[1]] {
			prod := ring.Mul(av, bvals[y])
			if stamp[col] != gen {
				stamp[col], dense[col], cols[n] = gen, prod, col
				n++
			} else {
				dense[col] = ring.Add(dense[col], prod)
			}
		}
	}
	spa.Gather(cols[:n], vals, sorted)
	return n
}

// onePassRowF64 is onePassRow (hashrow.go) with plus-times float64
// arithmetic; its Mul must inline.
//
//spgemm:hotpath
func onePassRowF64(spa *accum.SPA, a, b *matrix.CSR, i int, cols []int32, vals []float64) (n, marks int) {
	var ring semiring.PlusTimesF64
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	acols := a.ColIdx[alo:ahi]
	avals := a.Val[alo:ahi]
	st := spa.Marks()
	st.Clear()
	for x, k := range acols {
		brp := b.RowPtr[k : int(k)+2]
		bcols := b.ColIdx[brp[0]:brp[1]]
		if c := st.CopyNew(cols[n:], bcols); c < len(bcols) {
			return spaRowNumericF64(spa, a, b, i, x, n, cols, vals, false), n + c + 1
		}
		av := avals[x]
		bvals := b.Val[brp[0]:brp[1]]
		out := vals[n : n+len(bvals)]
		for y, bv := range bvals {
			out[y] = ring.Mul(av, bv)
		}
		n += len(bvals)
	}
	return n, n
}

// negZero is the additive identity at the bit level: -0 + x == x for every
// x, where +0 + (-0) is +0. Folding an entry's first product onto it leaves
// what Upsert's store-if-fresh leaves.
var negZero = math.Copysign(0, -1)

// planReplayRowsF64 is a Plan's streamed numeric pass over rows [lo, hi)
// (plan.go): their p-th intermediate product, in A-row/B-row order, folds
// into entry dst[p] of its output row, which is every hash-family kernel's
// per-entry fold order. Mul and Add must inline (lint/budget.txt [inline]).
//
//spgemm:hotpath
func planReplayRowsF64(a, b *matrix.CSR, rowPtr []int64, vals []float64, dst []uint32, lo, hi int) {
	var ring semiring.PlusTimesF64
	for i := lo; i < hi; i++ {
		out := vals[rowPtr[i]:rowPtr[i+1]]
		for j := range out {
			out[j] = negZero
		}
		alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
		acols := a.ColIdx[alo:ahi]
		avals := a.Val[alo:ahi]
		for x, k := range acols {
			av := avals[x]
			brp := b.RowPtr[k : int(k)+2]
			bvals := b.Val[brp[0]:brp[1]]
			d := dst[:len(bvals)]
			dst = dst[len(bvals):]
			for y, bv := range bvals {
				// float64() rounds the product as the kernels' stored prod
				// is rounded: no fused multiply-add where a target has one.
				out[d[y]] = ring.Add(out[d[y]], float64(ring.Mul(av, bv)))
			}
		}
	}
}
