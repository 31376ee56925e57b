package spgemm

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// escMultiply implements the ESC (expansion, sorting, compression) SpGEMM of
// Dalton, Olson and Bell (ACM TOMS 2015, the paper's reference [10]): every
// intermediate product is materialized into a per-row triple buffer
// (expansion), the buffer is sorted by column (sorting), and adjacent equal
// columns are summed (compression). ESC was designed for GPUs, where the
// sort maps onto radix-sort primitives; on CPUs its O(flop·log flop) sort
// makes it a lower bound illustration of why accumulator-based formulations
// win — exactly the framing of the paper's Section 2.
func escMultiply[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	workers := opt.workersFor(a.Rows)
	ctx := opt.ctx()
	ctx.ensureWorkers(workers)
	pt := startPhases(opt.Stats, workers)
	flopRow := ctx.perRowFlop(a, b)
	offsets := ctx.partition(flopRow, workers, workers)
	pt.tick(PhasePartition)

	bufCols := make([][]int32, workers)
	bufVals := make([][]V, workers)
	rowNnz := ctx.rowNnzBuf(a.Rows)
	rowOffset := make([]int64, a.Rows)

	ctx.runWorkers("numeric", workers, func(w int) {
		lo, hi := offsets[w], offsets[w+1]
		if lo >= hi {
			return
		}
		var maxFlop int64
		for i := lo; i < hi; i++ {
			if flopRow[i] > maxFlop {
				maxFlop = flopRow[i]
			}
		}
		s := ctx.workerScratch(w)
		expCols := s.EnsureInt32A(int(maxFlop))
		expVals := ctx.valScratchA(w, int(maxFlop))
		for i := lo; i < hi; i++ {
			// Expansion.
			var n int64
			alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
			for p := alo; p < ahi; p++ {
				k := a.ColIdx[p]
				av := a.Val[p]
				blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
				for q := blo; q < bhi; q++ {
					expCols[n] = b.ColIdx[q]
					expVals[n] = ring.Mul(av, b.Val[q])
					n++
				}
			}
			// Sorting.
			accum.SortPairs(expCols[:n], expVals[:n])
			// Compression.
			rowOffset[i] = int64(len(bufCols[w]))
			var out int64
			for p := int64(0); p < n; {
				col := expCols[p]
				v := expVals[p]
				p++
				for p < n && expCols[p] == col {
					v = ring.Add(v, expVals[p])
					p++
				}
				bufCols[w] = append(bufCols[w], col)
				bufVals[w] = append(bufVals[w], v)
				out++
			}
			rowNnz[i] = out
		}
		if ws := pt.worker(w); ws != nil {
			ws.Rows = int64(hi - lo)
			ws.Flop = rangeFlop(flopRow, lo, hi)
		}
	})
	pt.tick(PhaseNumeric)

	rowPtr := ctx.prefixSum(rowNnz, nil, workers)
	c := outputShell[V](a.Rows, b.Cols, rowPtr, true) // compression leaves rows sorted
	pt.tick(PhaseAlloc)
	ctx.runWorkers("assemble", workers, func(w int) {
		lo, hi := offsets[w], offsets[w+1]
		for i := lo; i < hi; i++ {
			off := rowOffset[i]
			n := rowNnz[i]
			copy(c.ColIdx[rowPtr[i]:rowPtr[i]+n], bufCols[w][off:off+n])
			copy(c.Val[rowPtr[i]:rowPtr[i]+n], bufVals[w][off:off+n])
		}
	})
	pt.tick(PhaseAssemble)
	pt.finish()
	return c, nil
}
