package spgemm

import (
	"fmt"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// heapMultiply is Heap SpGEMM (Section 4.2.3): one-phase, k-way merge of the
// sorted contributing rows of B with a thread-private binary heap. Output
// rows are produced in sorted order by construction. The five HeapVariant
// values reproduce the scheduling/memory-management comparison of Figure 9.
func heapMultiply[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	if !b.Sorted {
		return nil, fmt.Errorf("spgemm: heap algorithm requires sorted input rows (B is unsorted)")
	}
	switch opt.HeapVariant {
	case HeapBalancedParallel, HeapBalancedSingle:
		return heapBalanced(ring, a, b, opt)
	case HeapStatic:
		return heapScheduled(ring, a, b, opt, sched.Static, 1)
	case HeapDynamic:
		return heapScheduled(ring, a, b, opt, sched.Dynamic, 16)
	case HeapGuided:
		return heapScheduled(ring, a, b, opt, sched.Guided, 16)
	}
	return nil, fmt.Errorf("spgemm: unknown heap variant %d", opt.HeapVariant)
}

// heapRow merges output row i into cols/vals (which must hold at least
// flop(i) entries) and returns the number of entries produced. An output
// entry exists iff at least one product landed on it; the first product is
// stored directly and later ones folded with ring.Add, so entries whose
// value happens to equal ring.Zero() (min-plus: +Inf inputs) are kept, and
// none are fabricated.
//
//spgemm:hotpath
func heapRow[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], i int, h *accum.MergeHeapG[V], cols []int32, vals []V) int {
	h.Reset()
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	for p := alo; p < ahi; p++ {
		k := a.ColIdx[p]
		blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
		if blo < bhi {
			h.Push(b.ColIdx[blo], a.Val[p], blo, bhi)
		}
	}
	n := 0
	for h.Len() > 0 {
		col, av, pos := h.Min()
		prod := ring.Mul(av, b.Val[pos])
		if n > 0 && cols[n-1] == col {
			vals[n-1] = ring.Add(vals[n-1], prod)
		} else {
			cols[n] = col
			vals[n] = prod
			n++
		}
		mpos, mend := h.MinPosEnd()
		if mpos+1 < mend {
			h.AdvanceMin(b.ColIdx[mpos+1])
		} else {
			h.PopMin()
		}
	}
	return n
}

// heapBalanced implements the paper's final Heap design: rows partitioned by
// flop (Figure 6), one-phase with per-thread upper-bound temp buffers.
// HeapBalancedParallel gives each worker its own allocation ("parallel"
// memory management, Figure 3); HeapBalancedSingle carves all workers' temp
// space out of one shared slab ("single"), reproducing the costly variant of
// Figures 4 and 9.
func heapBalanced[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	workers := opt.workersFor(a.Rows)
	ctx := opt.ctx()
	ctx.ensureWorkers(workers)
	pt := startPhases(opt.Stats, workers)
	flopRow := ctx.perRowFlop(a, b)
	offsets := ctx.partition(flopRow, workers, workers)
	pt.tick(PhasePartition)

	// Per-worker temp sizes: sum of flop over the worker's rows (each row's
	// nnz is at most its flop).
	tempSize := make([]int64, workers)
	for w := 0; w < workers; w++ {
		var s int64
		for i := offsets[w]; i < offsets[w+1]; i++ {
			s += flopRow[i]
		}
		tempSize[w] = s
	}

	tmpCols := make([][]int32, workers)
	tmpVals := make([][]V, workers)
	if opt.HeapVariant == HeapBalancedSingle {
		// One shared slab, carved into per-worker segments. Deliberately
		// never drawn from the Context: the point of this variant is to
		// reproduce the costly "single" allocation of Figures 4 and 9.
		var total int64
		for _, s := range tempSize {
			total += s
		}
		allCols := make([]int32, total)
		allVals := make([]V, total)
		var off int64
		for w := 0; w < workers; w++ {
			tmpCols[w] = allCols[off : off+tempSize[w]]
			tmpVals[w] = allVals[off : off+tempSize[w]]
			off += tempSize[w]
		}
	}

	rowNnz := ctx.rowNnzBuf(a.Rows)
	used := make([]int64, workers)

	ctx.runWorkers("numeric", workers, func(w int) {
		lo, hi := offsets[w], offsets[w+1]
		if lo >= hi {
			return
		}
		if opt.HeapVariant == HeapBalancedParallel {
			// "parallel" memory management: the worker ensures its own
			// share (first-touched locally, reused across calls).
			s := ctx.workerScratch(w)
			tmpCols[w] = s.EnsureInt32A(int(tempSize[w]))
			tmpVals[w] = ctx.valScratch(w, int(tempSize[w]))
		}
		var maxK int64
		for i := lo; i < hi; i++ {
			if k := a.RowPtr[i+1] - a.RowPtr[i]; k > maxK {
				maxK = k
			}
		}
		h := ctx.mergeHeap(w, maxK)
		var pos int64
		for i := lo; i < hi; i++ {
			n := heapRow(ring, a, b, i, h, tmpCols[w][pos:], tmpVals[w][pos:])
			rowNnz[i] = int64(n)
			pos += int64(n)
		}
		used[w] = pos
		if ws := pt.worker(w); ws != nil {
			ws.Rows = int64(hi - lo)
			ws.Flop = rangeFlop(flopRow, lo, hi)
			ws.HeapPushes = h.Pushes()
		}
	})
	pt.tick(PhaseNumeric)

	rowPtr := ctx.prefixSum(rowNnz, nil, workers)
	c := outputShell[V](a.Rows, b.Cols, rowPtr, true)
	pt.tick(PhaseAlloc)
	// Each worker's rows are contiguous in both temp and final storage:
	// one bulk copy per worker.
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

// heapScheduled is the naive row-parallel Heap with an OpenMP-style schedule
// (the static/dynamic/guided curves of Figure 9). Workers append finished
// rows to growable private buffers and the matrix is stitched together at
// the end.
func heapScheduled[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V], schedule sched.Schedule, grain int) (*matrix.CSRG[V], error) {
	workers := opt.workersFor(a.Rows)
	ctx := opt.ctx()
	ctx.ensureWorkers(workers)
	pt := startPhases(opt.Stats, workers)
	flopRow := ctx.perRowFlop(a, b)
	pt.tick(PhasePartition)

	bufCols := make([][]int32, workers)
	bufVals := make([][]V, workers)
	rowNnz := ctx.rowNnzBuf(a.Rows)
	rowWorker := make([]int32, a.Rows)
	rowOffset := make([]int64, a.Rows)

	ctx.parallelFor("numeric", workers, a.Rows, schedule, grain, func(w, lo, hi int) {
		h := ctx.mergeHeap(w, 8)
		sw := ctx.workerScratch(w)
		var rowCols []int32
		var rowVals []V
		for i := lo; i < hi; i++ {
			f := flopRow[i]
			if int64(cap(rowCols)) < f {
				rowCols = sw.EnsureInt32A(int(f))
				rowVals = ctx.valScratch(w, int(f))
			}
			n := heapRow(ring, a, b, i, h, rowCols[:f], rowVals[:f])
			rowNnz[i] = int64(n)
			rowWorker[i] = int32(w)
			rowOffset[i] = int64(len(bufCols[w]))
			bufCols[w] = append(bufCols[w], rowCols[:n]...)
			bufVals[w] = append(bufVals[w], rowVals[:n]...)
		}
		if ws := pt.worker(w); ws != nil {
			// The heap is chunk-local under dynamic/guided schedules, so
			// its cumulative count is added, not assigned.
			ws.Rows += int64(hi - lo)
			ws.Flop += rangeFlop(flopRow, lo, hi)
			ws.HeapPushes += h.Pushes()
		}
	})
	pt.tick(PhaseNumeric)

	rowPtr := ctx.prefixSum(rowNnz, nil, workers)
	c := outputShell[V](a.Rows, b.Cols, rowPtr, true)
	pt.tick(PhaseAlloc)
	ctx.parallelFor("assemble", workers, a.Rows, sched.Static, 1, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			src := rowWorker[i]
			off := rowOffset[i]
			n := rowNnz[i]
			copy(c.ColIdx[rowPtr[i]:rowPtr[i]+n], bufCols[src][off:off+n])
			copy(c.Val[rowPtr[i]:rowPtr[i]+n], bufVals[src][off:off+n])
		}
	})
	pt.tick(PhaseAssemble)
	pt.finish()
	return c, nil
}
