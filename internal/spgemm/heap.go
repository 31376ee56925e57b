package spgemm

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// The driver's one-phase geometry (Section 4.1): inspect stops after the
// partition and onePhaseExecute below sizes the output by producing it, with
// one of three row functions. Heap SpGEMM (Section 4.2.3) is heapRow: a k-way
// merge of the sorted contributing rows of B with a thread-private binary
// heap, output rows sorted by construction and bounded by their flop. A
// product under an output mask is maskedRow (hashrow.go), a row bounded by
// its mask row. The one-pass route is onePassRow (hashrow.go), an unsorted
// Hash row bounded by its flop. Only a Heap Plan asks inspect for row
// pointers, and then replays skip the temp buffers as well. The scheduling
// and memory-management variants Figure 9 compares Heap against live in
// internal/bench/baseline.

// heapRow merges output row i into cols/vals (which must hold at least the
// row's entries; its flop bounds them) and returns the number of entries
// produced. An output entry exists iff at least one product landed on it; the
// first product is stored directly and later ones folded with ring.Add, so
// entries whose value happens to equal ring.Zero() (min-plus: +Inf inputs)
// are kept, and none are fabricated.
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

// onePhaseExecute is execute for the one-phase geometry. With no row pointers
// (a one-shot multiply) it is the paper's one-phase design: every worker
// computes its rows into its own Context-owned buffers, sized at an upper
// bound of their output — the flop of those rows for Heap, what their mask
// rows admit under a mask — and first-touched by the worker that fills them
// ("parallel" memory management, Figure 3); then the row sizes found on the
// way are prefix-summed into the row pointers and each worker's rows,
// contiguous in its buffers and in the output alike, move with one bulk copy
// (PhaseAssemble). With the row pointers of a Heap Plan every row is merged
// straight into its final place: no buffer, no copy.
func onePhaseExecute[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], ctx *ContextG[V], in *inspection[V], rowPtr []int64, unsorted bool, pt *phaseTimer) *matrix.CSRG[V] {
	if in.onePass {
		return onePassExecute(ring, a, b, ctx, in, pt)
	}
	sorted := in.mask == nil || !unsorted // a merged row is sorted by construction
	var c *matrix.CSRG[V]                 // a replay's output, merged into directly
	var rowNnz []int64                    // a one-shot multiply's row sizes, found on the way
	if rowPtr != nil {
		c = ctx.outputShell(a.Rows, b.Cols, rowPtr, true)
		pt.tick(PhaseAlloc)
	} else {
		rowNnz = ctx.rowNnzBuf(a.Rows)
	}
	ctx.runWorkers(in.workers, func(w int) {
		lo, hi := in.offsets[w], in.offsets[w+1]
		if lo >= hi {
			return
		}
		flop := rangeFlop(in.flopRow, lo, hi)
		ws := pt.worker(w)
		if ws != nil {
			ws.Rows = int64(hi - lo)
			ws.Flop = flop
		}
		if in.mask != nil {
			maskedRows(ring, ctx, w, a, b, in.mask, in.flopRow, lo, hi, flop, sorted && !in.mask.Sorted, rowNnz)
			return
		}
		h := ctx.mergeHeap(w, 8) // first-use hint: the heap grows to its widest row
		if c != nil {
			for i := lo; i < hi; i++ {
				heapRow(ring, a, b, i, h, c.ColIdx[rowPtr[i]:rowPtr[i+1]], c.Val[rowPtr[i]:rowPtr[i+1]])
			}
		} else {
			cols := ctx.workerScratch(w).EnsureInt32A(int(flop))
			vals := ctx.valScratch(w, int(flop))
			pos := 0
			for i := lo; i < hi; i++ {
				n := heapRow(ring, a, b, i, h, cols[pos:], vals[pos:])
				rowNnz[i] = int64(n)
				pos += n
			}
		}
		if ws != nil {
			ws.HeapPushes = h.Pushes()
		}
	})
	pt.tick(PhaseNumeric)
	if c != nil {
		pt.finish()
		return c
	}

	sized := ctx.prefixSum(rowNnz, ctx.rowPtrBuf(a.Rows), in.workers)
	out := ctx.outputShell(a.Rows, b.Cols, sized, sorted)
	pt.tick(PhaseAlloc)
	ctx.runWorkers(in.workers, func(w int) {
		// The worker's buffers are where the numeric region left them; the
		// destination's length stops the copy at what the worker produced.
		lo, hi := sized[in.offsets[w]], sized[in.offsets[w+1]]
		copy(out.ColIdx[lo:hi], ctx.workerScratch(w).Int32A)
		copy(out.Val[lo:hi], ctx.vals[w])
	})
	pt.tick(PhaseAssemble)
	pt.finish()
	return out
}

// onePassExecute is onePhaseExecute on the one-pass route: one stripe, so
// every row goes in order straight into an output drawn at the flop
// (onePassRows). No temp buffers, no copy.
func onePassExecute[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], ctx *ContextG[V], in *inspection[V], pt *phaseTimer) *matrix.CSRG[V] {
	flop, max := rangeFlopMax(in.flopRow, 0, a.Rows)
	c := &matrix.CSRG[V]{Rows: a.Rows, Cols: b.Cols, RowPtr: ctx.rowPtrBuf(a.Rows),
		ColIdx: drawUpTo(&ctx.outCols, flop), Val: drawUpTo(&ctx.outVals, flop)}
	pt.tick(PhaseAlloc)
	ctx.runWorkers(1, func(int) { onePassRows(ring, ctx, a, b, in.flopRow, flop, max, c, pt.worker(0)) })
	pt.tick(PhaseNumeric)
	pt.finish()
	return c
}
