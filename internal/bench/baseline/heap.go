package baseline

import (
	"errors"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/spgemm"
)

// heapRow is the k-way merge of spgemm's Heap kernel over float64
// plus-times: output row i into cols/vals, which hold at least flop(i)
// entries; returns the number of entries produced.
func heapRow(a, b *matrix.CSR, i int, h *accum.MergeHeap, cols []int32, vals []float64) int {
	h.Reset()
	for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
		k := a.ColIdx[p]
		if blo, bhi := b.RowPtr[k], b.RowPtr[k+1]; blo < bhi {
			h.Push(b.ColIdx[blo], a.Val[p], blo, bhi)
		}
	}
	n := 0
	for h.Len() > 0 {
		col, av, pos := h.Min()
		prod := av * b.Val[pos]
		if n > 0 && cols[n-1] == col {
			vals[n-1] += prod
		} else {
			cols[n], vals[n] = col, prod
			n++
		}
		if mpos, mend := h.MinPosEnd(); mpos+1 < mend {
			h.AdvanceMin(b.ColIdx[mpos+1])
		} else {
			h.PopMin()
		}
	}
	return n
}

// heapOnePhase is one-phase Heap SpGEMM the four ways Figure 9 draws next to
// the production kernel (spgemm.AlgHeap, "balanced parallel": flop-balanced
// rows, thread-private upper-bound buffers). Under sched.Balanced rows are
// flop-balanced too but all workers' upper-bound space is one slab, allocated
// by the calling goroutine and carved into per-worker segments — the costly
// "single" memory management of Figures 4 and 9. Under the other schedules
// rows are handed out naively, and since a worker cannot know its rows up
// front it appends finished rows to a growable private buffer, stitched row
// by row at the end.
func heapOnePhase(a, b *matrix.CSR, opt *Options, schedule sched.Schedule) (*matrix.CSR, error) {
	if !b.Sorted {
		return nil, errors.New("baseline: heap requires sorted input rows (B is unsorted)")
	}
	single := schedule == sched.Balanced
	workers := opt.workersFor(a.Rows)
	pt := startPhases(opt.Stats, workers)
	total, flopRow := matrix.Flop(a, b)
	bufCols, bufVals := make([][]int32, workers), make([][]float64, workers)
	// single: the balanced partition. Otherwise: where each finished row
	// sits (worker, offset in its buffer), and the per-worker row scratch.
	var offsets []int
	var rowWorker []int32
	var rowOffset []int64
	rowCols, rowVals := make([][]int32, workers), make([][]float64, workers)
	if single {
		offsets = sched.BalancedPartition(flopRow, workers, workers)
		allCols, allVals := make([]int32, total), make([]float64, total)
		var off int64
		for w := range bufCols {
			size, _ := flopSumMax(flopRow, offsets[w], offsets[w+1])
			bufCols[w], bufVals[w] = allCols[off:off+size], allVals[off:off+size]
			off += size
		}
	} else {
		rowWorker, rowOffset = make([]int32, a.Rows), make([]int64, a.Rows)
	}
	pt.tick(spgemm.PhasePartition)

	rowNnz := make([]int64, a.Rows)
	heaps := make([]*accum.MergeHeap, workers)
	numeric := pt.timed(func(w, lo, hi int) {
		if heaps[w] == nil {
			heaps[w] = accum.NewMergeHeap(8)
		}
		h := heaps[w]
		pos := 0
		for i := lo; i < hi; i++ {
			var n int
			if single {
				n = heapRow(a, b, i, h, bufCols[w][pos:], bufVals[w][pos:])
				pos += n
			} else {
				f := flopRow[i]
				if int64(cap(rowCols[w])) < f {
					rowCols[w], rowVals[w] = make([]int32, f), make([]float64, f)
				}
				n = heapRow(a, b, i, h, rowCols[w][:f], rowVals[w][:f])
				rowWorker[i], rowOffset[i] = int32(w), int64(len(bufCols[w]))
				bufCols[w] = append(bufCols[w], rowCols[w][:n]...)
				bufVals[w] = append(bufVals[w], rowVals[w][:n]...)
			}
			rowNnz[i] = int64(n)
		}
		if ws := pt.worker(w); ws != nil {
			flop, _ := flopSumMax(flopRow, lo, hi)
			ws.Rows += int64(hi - lo)
			ws.Flop += flop
			// The heap's count is cumulative over the worker's chunks.
			ws.HeapPushes = h.Pushes()
		}
	})
	if single {
		sched.RunWorkers(workers, func(w int) { numeric(w, offsets[w], offsets[w+1]) })
	} else {
		sched.ParallelFor(workers, a.Rows, schedule, 16, numeric)
	}
	pt.tick(spgemm.PhaseNumeric)

	rowPtr := sched.PrefixSum(rowNnz, nil, workers)
	c := outputShell(a.Rows, b.Cols, rowPtr, true)
	pt.tick(spgemm.PhaseAlloc)
	if single {
		// A worker's rows are contiguous in its segment and in the output.
		assemble := pt.timed(func(w, lo, hi int) {
			copy(c.ColIdx[rowPtr[lo]:rowPtr[hi]], bufCols[w])
			copy(c.Val[rowPtr[lo]:rowPtr[hi]], bufVals[w])
		})
		sched.RunWorkers(workers, func(w int) { assemble(w, offsets[w], offsets[w+1]) })
	} else {
		sched.ParallelFor(workers, a.Rows, sched.Static, 1, pt.timed(func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				src, off, n := rowWorker[i], rowOffset[i], rowNnz[i]
				copy(c.ColIdx[rowPtr[i]:rowPtr[i]+n], bufCols[src][off:off+n])
				copy(c.Val[rowPtr[i]:rowPtr[i]+n], bufVals[src][off:off+n])
			}
		}))
	}
	pt.tick(spgemm.PhaseAssemble)
	return c, nil
}
