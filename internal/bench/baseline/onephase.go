package baseline

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/spgemm"
)

// hashOnePhase skips the symbolic pass and writes each row into
// worker-private temp buffers sized at the flop upper bound, then stitches.
// It trades the symbolic pass's extra computation for O(flop) extra memory —
// BenchmarkAblationPhases quantifies the trade on both sides.
func hashOnePhase(a, b *matrix.CSR, opt *Options) *matrix.CSR {
	workers := opt.workersFor(a.Rows)
	pt := startPhases(opt.Stats, workers)
	_, flopRow := matrix.Flop(a, b)
	offsets := sched.BalancedPartition(flopRow, workers, workers)
	pt.tick(spgemm.PhasePartition)

	tmpCols := make([][]int32, workers)
	tmpVals := make([][]float64, workers)
	rowNnz := make([]int64, a.Rows)

	numeric := pt.timed(func(w, lo, hi int) {
		if lo >= hi {
			return
		}
		flop, bound := flopSumMax(flopRow, lo, hi)
		cols, vals := make([]int32, flop), make([]float64, flop)
		table := accum.NewHashTable(min(bound, int64(b.Cols)))
		pos := 0
		for i := lo; i < hi; i++ {
			table.Reset()
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				k := a.ColIdx[p]
				av := a.Val[p]
				for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
					prod := av * b.Val[q]
					slot, fresh := table.Upsert(b.ColIdx[q])
					if fresh {
						*slot = prod
					} else {
						*slot += prod
					}
				}
			}
			n := table.Len()
			if opt.Unsorted {
				table.ExtractUnsorted(cols[pos:pos+n], vals[pos:pos+n])
			} else {
				table.ExtractSorted(cols[pos:pos+n], vals[pos:pos+n])
			}
			rowNnz[i] = int64(n)
			pos += n
		}
		tmpCols[w], tmpVals[w] = cols[:pos], vals[:pos]
		if ws := pt.worker(w); ws != nil {
			ws.Rows, ws.Flop = int64(hi-lo), flop
			ws.HashLookups, ws.HashProbes = table.Lookups(), table.Probes()
		}
	})
	sched.RunWorkers(workers, func(w int) { numeric(w, offsets[w], offsets[w+1]) })
	pt.tick(spgemm.PhaseNumeric)

	rowPtr := sched.PrefixSum(rowNnz, nil, workers)
	c := outputShell(a.Rows, b.Cols, rowPtr, !opt.Unsorted)
	pt.tick(spgemm.PhaseAlloc)
	assemble := pt.timed(func(w, lo, _ int) {
		copy(c.ColIdx[rowPtr[lo]:], tmpCols[w])
		copy(c.Val[rowPtr[lo]:], tmpVals[w])
	})
	sched.RunWorkers(workers, func(w int) { assemble(w, offsets[w], offsets[w+1]) })
	pt.tick(spgemm.PhaseAssemble)
	return c
}
