package spgemm

import (
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Specialized monomorphized drivers for Hash and HashVector SpGEMM.
//
// These duplicate the control flow of the generic twoPhase driver with the
// accumulator as a concrete type, so the symbolic insert and numeric
// accumulate in the innermost loop compile to direct calls. The duplication
// is deliberate: Hash/HashVector are the paper's contribution and their
// measured position relative to the hand-written heap driver (which has no
// interface in its inner loop either) is the headline result; routing them
// through an interface would tax exactly the algorithms the paper optimizes.
// The row loops themselves are not duplicated: both drivers share the
// symbolic pass, and Hash its numeric pass, with every other whole-row hash
// caller through hashrow.go.
//
// Since the drivers are generic over the ring type, the same specialized
// code path serves every semiring, and the historic plus-times-only
// restriction (with a func-pointer slow path for everything else) is gone.
// One caveat the inline gate (spgemm-lint -mode=inline) documents: generics
// alone do NOT devirtualize the ring — Go's shape stenciling routes
// ring.Add/ring.Mul through a runtime dictionary, an indirect call per
// product. The numeric workers therefore test once, outside the row loop,
// for the float64 plus-times flagship and route whole rows through the
// hand-monomorphized loops in ringfast.go; every other ring stays on the
// dictionary path.
//
// All transient state (flop counts, partition, row sizes, hash tables) lives
// in the call's Context, so iterative callers that pass Options.Context reach
// a steady state where only the output matrix is allocated.

// hashFast is the unmasked Hash SpGEMM over an arbitrary ring.
func hashFast[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	workers := opt.workers()
	if workers > a.Rows && a.Rows > 0 {
		workers = a.Rows
	}
	if workers < 1 {
		workers = 1
	}
	ctx := opt.ctx()
	ctx.ensureWorkers(workers)
	pt := startPhases(opt.Stats, workers)
	flopRow := ctx.perRowFlop(a, b)
	offsets := ctx.partition(flopRow, workers, workers)
	pt.tick(PhasePartition)
	rowNnz := ctx.rowNnzBuf(a.Rows)

	ctx.runWorkers("symbolic", workers, func(w int) {
		ctx.hashSymbolic(w, a, b, flopRow, offsets[w], offsets[w+1], rowNnz, pt.worker(w))
	})
	pt.tick(PhaseSymbolic)

	rowPtr := ctx.prefixSum(rowNnz, nil, workers)
	c := outputShell[V](a.Rows, b.Cols, rowPtr, !opt.Unsorted)
	pt.tick(PhaseAlloc)

	ctx.runWorkers("numeric", workers, func(w int) {
		lo, hi := offsets[w], offsets[w+1]
		flop, max := rangeFlopMax(flopRow, lo, hi)
		h := newHashNumeric(ring, ctx.hashTable(w, capBound(max, b.Cols)), a, b, c.ColIdx, c.Val, !opt.Unsorted)
		h.rows(flopRow, c.RowPtr, lo, hi, 0)
		if ws := pt.worker(w); ws != nil {
			ws.Rows = int64(hi - lo)
			ws.Flop = flop
			h.report(ws)
		}
	})
	pt.tick(PhaseNumeric)
	pt.finish()
	return c, nil
}

// hashVecFast is the unmasked HashVector SpGEMM over an arbitrary ring. Its
// symbolic phase is hashFast's — counting distinct columns does not depend
// on the numeric accumulator — and its numeric phase probes the chunked
// table.
func hashVecFast[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	workers := opt.workers()
	if workers > a.Rows && a.Rows > 0 {
		workers = a.Rows
	}
	if workers < 1 {
		workers = 1
	}
	ctx := opt.ctx()
	ctx.ensureWorkers(workers)
	pt := startPhases(opt.Stats, workers)
	flopRow := ctx.perRowFlop(a, b)
	offsets := ctx.partition(flopRow, workers, workers)
	pt.tick(PhasePartition)
	rowNnz := ctx.rowNnzBuf(a.Rows)

	ctx.runWorkers("symbolic", workers, func(w int) {
		ctx.hashSymbolic(w, a, b, flopRow, offsets[w], offsets[w+1], rowNnz, pt.worker(w))
	})
	pt.tick(PhaseSymbolic)

	rowPtr := ctx.prefixSum(rowNnz, nil, workers)
	c := outputShell[V](a.Rows, b.Cols, rowPtr, !opt.Unsorted)
	pt.tick(PhaseAlloc)

	ctx.runWorkers("numeric", workers, func(w int) {
		lo, hi := offsets[w], offsets[w+1]
		if lo >= hi {
			return
		}
		flop, max := rangeFlopMax(flopRow, lo, hi)
		table := ctx.hashVecTable(w, capBound(max, b.Cols))
		for i := lo; i < hi; i++ {
			table.Reset()
			alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
			for p := alo; p < ahi; p++ {
				k := a.ColIdx[p]
				av := a.Val[p]
				blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
				for q := blo; q < bhi; q++ {
					prod := ring.Mul(av, b.Val[q])
					slot, fresh := table.Upsert(b.ColIdx[q])
					if fresh {
						*slot = prod
					} else {
						*slot = ring.Add(*slot, prod)
					}
				}
			}
			start := c.RowPtr[i]
			cols := c.ColIdx[start : start+rowNnz[i]]
			vals := c.Val[start : start+rowNnz[i]]
			if opt.Unsorted {
				table.ExtractUnsorted(cols, vals)
			} else {
				table.ExtractSorted(cols, vals)
			}
		}
		if ws := pt.worker(w); ws != nil {
			ws.Rows = int64(hi - lo)
			ws.Flop = flop
			ws.HashLookups += table.Lookups()
			ws.HashProbes += table.Probes()
		}
	})
	pt.tick(PhaseNumeric)
	pt.finish()
	return c, nil
}
