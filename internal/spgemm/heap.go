package spgemm

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// The driver's one-phase geometry (Section 4.1): inspect stops after the
// partition and onePhaseExecute below sizes the output by producing it, with
// one of three row functions. Heap SpGEMM (Section 4.2.3) is heapRow: a k-way
// merge of the sorted contributing rows of B with a thread-private binary
// heap, output rows sorted by construction and bounded by their flop. A row
// of masked row sums (MaskedRowSums) is maskedRow (hashrow.go), bounded by
// its mask row and folded away. The one-pass route is onePassRow
// (hashrow.go), an unsorted Hash row bounded by its flop. Only a Heap Plan
// asks inspect for row pointers, and then replays skip the temp buffers as
// well. The scheduling and memory-management variants Figure 9 compares Heap
// against live in internal/bench/baseline.

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

// onePhaseExecute is execute for the one-phase geometry, over execute's loop:
// worker w starts on stripe w and then claims whichever stripe nobody has
// started. With no row pointers (a one-shot multiply) it is the paper's
// one-phase design: every stripe computes its rows into its own window of one
// Context-owned buffer, sized at the flop of those rows (stripeWindows);
// then the row sizes found on the way are prefix-summed into the row pointers
// and each stripe's rows, contiguous in its window and in the output alike,
// move with one bulk copy (PhaseAssemble). With the row pointers of a Heap
// Plan a stripe's window is its slice of the output, so every row is merged
// straight into its final place: no buffer, no copy. With sums
// (MaskedRowSums) a window is a worker's, one mask row wide, and each row is
// folded into sums[i] and overwritten by the next: no output at all. Every
// row it stores is sorted, a merged row by construction.
func onePhaseExecute[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], ctx *ContextG[V], in *inspection[V], rowPtr []int64, sums []V, pt *phaseTimer) *matrix.CSRG[V] {
	if in.onePass {
		return onePassExecute(ring, a, b, ctx, in, pt)
	}
	win := ctx.stripeWindows(in, rowPtr, sums != nil)
	var c *matrix.CSRG[V] // a replay's output, merged into directly
	var rowNnz []int64    // a one-shot multiply's row sizes, found on the way
	var cols []int32
	var vals []V
	if rowPtr != nil {
		c = ctx.outputShell(a.Rows, b.Cols, rowPtr, true)
		cols, vals = c.ColIdx, c.Val
		pt.tick(PhaseAlloc)
	} else {
		if sums == nil {
			rowNnz = ctx.rowNnzBuf(a.Rows)
		}
		cols, vals = tempBuf(&ctx.tmpCols, win[len(win)-1]), tempBuf(&ctx.tmpVals, win[len(win)-1])
	}
	// The mask index goes by denseRule, for its reason: the O(Cols) array only
	// where the flop one worker serves pays for it, however fine the cut.
	dense := in.mask != nil && in.dense
	ctx.runWorkers(in.workers, func(w int) {
		ws := pt.worker(w)
		var h *accum.MergeHeapG[V]
		if in.mask == nil {
			h = ctx.mergeHeap(w, 8) // first-use hint: the heap grows to its widest row
		}
		for s := w; s < in.stripes(); s = ctx.nextStripe() {
			lo, hi := in.offsets[s], in.offsets[s+1]
			at := s // the stripe's window, or under sums the worker's
			if sums != nil {
				at = w
			}
			// Capped at the window's end: a row overrunning it panics instead.
			wcols, wvals := cols[win[at]:win[at+1]:win[at+1]], vals[win[at]:win[at+1]:win[at+1]]
			if in.mask != nil {
				maskedRows(ring, ctx, w, a, b, in.mask, in.flopRow, lo, hi, dense, wcols, wvals, sums)
			} else {
				pos := 0
				for i := lo; i < hi; i++ {
					n := heapRow(ring, a, b, i, h, wcols[pos:], wvals[pos:])
					if rowNnz != nil {
						rowNnz[i] = int64(n)
					}
					pos += n
				}
			}
			if ws != nil {
				ws.Rows += int64(hi - lo)
				ws.Flop += rangeFlop(in.flopRow, lo, hi)
			}
		}
		if ws != nil && h != nil {
			ws.HeapPushes += h.Pushes()
		}
	})
	pt.tick(PhaseNumeric)
	if rowPtr != nil || sums != nil { // a replay merged into c; sums leave no output
		pt.finish()
		return c
	}

	sized := sched.PrefixSum(rowNnz, ctx.rowPtrBuf(a.Rows), in.workers)
	out := ctx.outputShell(a.Rows, b.Cols, sized, true)
	pt.tick(PhaseAlloc)
	ctx.runWorkers(in.workers, func(w int) {
		for s := w; s < in.stripes(); s = ctx.nextStripe() {
			// The destination's length stops the copy at what the stripe produced.
			lo, hi := sized[in.offsets[s]], sized[in.offsets[s+1]]
			copy(out.ColIdx[lo:hi], cols[win[s]:])
			copy(out.Val[lo:hi], vals[win[s]:])
		}
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
