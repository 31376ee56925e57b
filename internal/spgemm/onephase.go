package spgemm

import (
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// hashOnePhase is the one-phase alternative the paper's Section 2 contrasts
// with the symbolic+numeric design: skip the symbolic pass and write each
// row into thread-private temp buffers sized at the flop upper bound, then
// stitch. It trades the symbolic pass's extra computation for O(flop) extra
// memory — the ablation benchmark BenchmarkAblationPhases quantifies the
// trade on both sides.
//
// Kept unexported: the exported AlgHash is the paper's two-phase design;
// this variant exists for the ablation study.
func hashOnePhase[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	workers := opt.workersFor(a.Rows)
	ctx := opt.ctx()
	ctx.ensureWorkers(workers)
	pt := startPhases(opt.Stats, workers)
	flopRow := ctx.perRowFlop(a, b)
	offsets := ctx.partition(flopRow, workers, workers)
	pt.tick(PhasePartition)

	tmpCols := make([][]int32, workers)
	tmpVals := make([][]V, workers)
	rowNnz := ctx.rowNnzBuf(a.Rows)
	used := make([]int64, workers)

	ctx.runWorkers("numeric", workers, func(w int) {
		lo, hi := offsets[w], offsets[w+1]
		if lo >= hi {
			return
		}
		var tempSize, bound int64
		for i := lo; i < hi; i++ {
			tempSize += flopRow[i]
			if flopRow[i] > bound {
				bound = flopRow[i]
			}
		}
		s := ctx.workerScratch(w)
		tmpCols[w] = s.EnsureInt32A(int(tempSize))
		tmpVals[w] = ctx.valScratchA(w, int(tempSize))
		table := ctx.hashTable(w, capBound(bound, b.Cols))
		var pos int64
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
			n := table.Len()
			if opt.Unsorted {
				table.ExtractUnsorted(tmpCols[w][pos:pos+int64(n)], tmpVals[w][pos:pos+int64(n)])
			} else {
				table.ExtractSorted(tmpCols[w][pos:pos+int64(n)], tmpVals[w][pos:pos+int64(n)])
			}
			rowNnz[i] = int64(n)
			pos += int64(n)
		}
		used[w] = pos
		if ws := pt.worker(w); ws != nil {
			ws.Rows = int64(hi - lo)
			ws.Flop = rangeFlop(flopRow, lo, hi)
			ws.HashLookups = table.Lookups()
			ws.HashProbes = table.Probes()
		}
	})
	pt.tick(PhaseNumeric)

	rowPtr := ctx.prefixSum(rowNnz, nil, workers)
	c := outputShell[V](a.Rows, b.Cols, rowPtr, !opt.Unsorted)
	pt.tick(PhaseAlloc)
	ctx.runWorkers("assemble", workers, func(w int) {
		lo := offsets[w]
		if lo >= offsets[w+1] {
			return
		}
		dst := rowPtr[lo]
		copy(c.ColIdx[dst:dst+used[w]], tmpCols[w][:used[w]])
		copy(c.Val[dst:dst+used[w]], tmpVals[w][:used[w]])
	})
	pt.tick(PhaseAssemble)
	pt.finish()
	return c, nil
}
