package spgemm

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// The driver's second executor (driver.go): onePhaseExecute below runs the
// products that size themselves by producing their rows, each with its own
// row function. Heap SpGEMM (Section 4.2.3) is heapRow: a k-way merge of the
// sorted contributing rows of B with a thread-private binary heap, output
// rows sorted by construction and bounded by their flop. The one-pass route
// is onePassRow (hashrow.go), an unsorted Hash row bounded by its flop. A Heap Plan knows its row pointers, so execute
// runs it, heapRow writing each stripe's rows into their slice of the output.
// The scheduling and memory-management variants Figure 9 compares Heap
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

// onePhaseExecute is the paper's one-phase design, over execute's stripes:
// every stripe computes its rows into its own window of one Context-owned
// buffer, sized at the flop of those rows (stripeWindows); then the row sizes
// found on the way are prefix-summed into the row pointers and each stripe's
// rows, contiguous in its window and in the output alike, move with one bulk
// copy (PhaseAssemble). The one-pass route has one stripe, so every row goes
// in order straight into an output drawn at the flop (onePassRows): no
// buffer, no copy. Every row it stores is sorted but the one-pass route's, a
// merged row by construction.
func onePhaseExecute[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], ctx *ContextG[V], in *inspection[V], pt *phaseTimer) *matrix.CSRG[V] {
	if in.onePass {
		flop, max := rangeFlopMax(in.flopRow, 0, a.Rows)
		dcols, dvals := ctx.outCols, ctx.outVals // the donations drawUpTo takes, if any
		c := &matrix.CSRG[V]{Rows: a.Rows, Cols: b.Cols, RowPtr: ctx.rowPtrBuf(a.Rows),
			ColIdx: drawUpTo(&ctx.outCols, flop), Val: drawUpTo(&ctx.outVals, flop)}
		pt.tick(PhaseAlloc)
		ctx.eachStripe(1, 1, func(_, _ int, ws *WorkerStats) { onePassRows(ring, ctx, a, b, in.flopRow, flop, max, c, ws) })
		nnz := c.RowPtr[a.Rows]
		c.ColIdx, c.Val = fit(c.ColIdx, dcols, nnz), fit(c.Val, dvals, nnz)
		pt.tick(PhaseNumeric)
		pt.finish()
		return c
	}
	win := ctx.stripeWindows(in)
	rowNnz := ctx.rowNnzBuf(a.Rows) // a Heap product's row sizes, found on the way
	cols, vals := tempBuf(&ctx.tmpCols, win[len(win)-1]), tempBuf(&ctx.tmpVals, win[len(win)-1])
	ctx.eachStripe(in.workers, in.stripes(), func(w, s int, ws *WorkerStats) {
		lo, hi := in.offsets[s], in.offsets[s+1]
		// Capped at the window's end: a row overrunning it panics instead.
		wcols, wvals := cols[win[s]:win[s+1]:win[s+1]], vals[win[s]:win[s+1]:win[s+1]]
		h := ctx.mergeHeap(w, 8) // first-use hint: the heap grows to its widest row
		pos := 0
		for i := lo; i < hi; i++ {
			n := heapRow(ring, a, b, i, h, wcols[pos:], wvals[pos:])
			rowNnz[i] = int64(n)
			pos += n
		}
		if ws != nil {
			ws.HeapPushes += h.Pushes()
			ws.Rows += int64(hi - lo)
			ws.Flop += rangeFlop(in.flopRow, lo, hi)
		}
	})
	pt.tick(PhaseNumeric)

	sized := sched.PrefixSum(rowNnz, ctx.rowPtrBuf(a.Rows), in.workers)
	out := ctx.outputShell(a.Rows, b.Cols, sized, true)
	pt.tick(PhaseAlloc)
	ctx.eachStripe(in.workers, in.stripes(), func(_, s int, _ *WorkerStats) {
		// The destination's length stops the copy at what the stripe produced.
		lo, hi := sized[in.offsets[s]], sized[in.offsets[s+1]]
		copy(out.ColIdx[lo:hi], cols[win[s]:])
		copy(out.Val[lo:hi], vals[win[s]:])
	})
	pt.tick(PhaseAssemble)
	pt.finish()
	return out
}
