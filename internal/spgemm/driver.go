package spgemm

import (
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// The driver. Hash SpGEMM is the paper's two-phase pipeline (Figure 7)
// over one row geometry, and the pipeline has one seam:
// once the symbolic phase has sized the output, everything that depends on
// the operands' structure is known and only values remain. inspect runs up
// to that seam and returns an inspection;
// execute runs from it. A one-shot Multiply is execute(inspect(...)) with no
// copy in between; a Plan is an inspection cloned out of the Context's
// buffers, executed as often as the caller likes (plan.go). Heap is the
// one-phase geometry (heap.go): one-shot, its inspection ends at the
// partition and execute sizes the output by producing it; for a Plan the
// same symbolic pass fixes the row pointers, so a replay differs from the
// two-phase kernels' only in its row function. Its other two row functions
// are the masked row sums (MaskedRowSums), each row bounded by its mask row
// and folded away, and the one-pass route: an unsorted Hash product in one
// stripe at compression ratio about 1, whose flop already bounds its output.
//
// The geometry is data: a flop-balanced cut of the rows into stripes
// (Figure 6). Each half runs one loop over the stripes, a stripe's rows going
// through the whole-row passes of hashrow.go into the stripe's window of the
// output. Hash cuts one stripe per worker, or as many more as
// keep a stripe's output within its memory budget (shard.go), and may land
// them in a sink; the one-phase geometry cuts claimStripes per worker at
// W > 1. Nothing past the cut asks which of them is running, the
// schedule included: worker w starts on stripe w and then takes whichever
// stripe nobody has started (ContextG.nextStripe). Cut one per worker,
// nothing is left to take and that is the paper's static mapping; cut finer,
// the rest flow through the pool one at a time, so a blocking sink or a slow
// stripe holds back only the worker on it.
//
// Both halves are generic over the ring with concrete accumulator types, so
// the symbolic insert and numeric accumulate compile to direct calls: these
// are the paper's contribution, and routing them through an accumulator
// interface (as the figure baselines of internal/bench/baseline do) would tax
// exactly the algorithms it optimizes. Generics alone do not devirtualize the
// ring — Go's shape stenciling passes Add/Mul through a runtime dictionary —
// so each numeric window takes its row bodies from bodiesFor, once, outside
// the row loop: the three plus-times rings fold in Go's own * and +
// (ringfast.go), every other ring through its dictionary.
//
// All transient state lives in the call's Context: an iterative caller that
// passes Options.Context reaches a steady state where only the output
// matrix is allocated — and one that also hands its finished products back
// (ContextG.Recycle), a steady state where the output is built in the
// previous one's arrays.

// inspection is everything the structure of A and B determines about one
// product under one geometry: the result of the partition and symbolic
// phases. It is a field of the Context inspect ran on and its slices alias
// that Context's buffers (rowPtr excepted), so it is valid until the Context's
// next call; execute only reads it, so one inspection — a Plan's clone — may
// serve concurrent executions on distinct Contexts.
type inspection[V semiring.Value] struct {
	alg     Algorithm // any but AlgAuto
	workers int
	flopRow []int64
	// rowPtr is the output's row-pointer array, allocated for this product
	// alone: a one-shot multiply hands it to the output matrix. nil for a
	// one-shot one-phase product, whose execution is what sizes the output.
	rowPtr []int64

	// offsets is the whole-row pass's flop-balanced cut of the rows into
	// stripes, len(offsets)-1 of them.
	offsets []int

	// The mask of MaskedRowSums (AlgHash, never a Plan), which runs the
	// one-phase geometry with maskedRow as its row function (heap.go).
	mask    *matrix.CSRG[V]
	onePass bool // the one-pass route (inspect): onePassRow's geometry
}

// onePhase reports whether a row is bounded before it is computed — by its
// flop (Heap, the one-pass route) or its mask row (onePhaseExecute).
func (in *inspection[V]) onePhase() bool { return in.alg == AlgHeap || in.mask != nil || in.onePass }

// claimStripes is the stripes per worker of masked row sums or a Heap
// product at W > 1: a row's cost there is not its flop, so a static flop cut
// can leave one worker the slow rows; finer stripes let the others claim the
// rest. 16 won a sweep over 4, 8 and 16 on triangle counting's masked L·U
// (EXPERIMENTS.md).
const claimStripes = 16

// onePassMaxCR is the sampled compression ratio up to which the one-pass
// route's flop-sized output overshoots nnz(C) by at most 5 %.
const onePassMaxCR = 1.05

// stripes is the number of row stripes the product is cut into.
func (in *inspection[V]) stripes() int { return len(in.offsets) - 1 }

// clone copies every Context-owned slice into memory of its own, which is
// all that separates a Plan from a one-shot inspection.
func (in *inspection[V]) clone() inspection[V] {
	out := *in
	out.flopRow = append([]int64(nil), in.flopRow...)
	out.offsets = append([]int(nil), in.offsets...)
	return out
}

// inspect runs the structure-only phases of alg on ctx: flop counts, the
// geometry and its flop-balanced partition (PhasePartition), the symbolic
// pass (PhaseSymbolic) and the row-pointer prefix sum, which the next tick
// of the returned timer charges to whatever the caller does next. mask is
// MaskedRowSums', nil for every stored product. forPlan
// asks for the one thing a replay needs that a one-shot multiply does not:
// the row pointers of a one-phase product. Both results are ctx's own
// (ctx.in, ctx.pt), not allocations.
func inspect[V semiring.Value](alg Algorithm, a, b, mask *matrix.CSRG[V], opt *OptionsG[V], ctx *ContextG[V], forPlan bool) (*inspection[V], *phaseTimer) {
	workers := opt.workersFor(a.Rows)
	ctx.ensureWorkers(workers)
	ctx.pt = startPhases(opt.Stats, alg, workers)
	pt := &ctx.pt
	ctx.in = inspection[V]{alg: alg, workers: workers, flopRow: ctx.perRowFlop(a, b), mask: mask}
	in := &ctx.in
	flop := rangeFlop(in.flopRow, 0, a.Rows)
	stripes := 1
	switch {
	case alg != AlgHeap && mask == nil:
		stripes = opt.shardStripes(flop, a.Rows, workers)
	case workers > 1:
		stripes = claimStripes * workers
	}
	in.offsets = ctx.partition(in.flopRow, stripes, workers)
	// The one-pass route: an unsorted one-shot Hash product in one stripe
	// and without a sink, whose running offset is its row pointer, on stamps
	// and the SPA by denseRule and at a ratio the recipe's sample, run on
	// ctx's worker-0 counter, reads as about 1.
	in.onePass = !forPlan && opt.Unsorted && alg == AlgHash && mask == nil && opt.ShardSink == nil && in.stripes() == 1 &&
		denseRule(b.Cols, flop) && ctx.compressionRatio(a, b, recipeSampleRows) <= onePassMaxCR
	pt.tick(PhasePartition)
	if in.onePhase() && !forPlan {
		return in, pt
	}
	// A Heap Plan counts with Hash's symbolic pass: the number of distinct
	// columns does not depend on the numeric accumulator.
	rowNnz := ctx.rowNnzBuf(a.Rows)
	ctx.runWorkers(workers, func(w int) {
		for s := w; s < in.stripes(); s = ctx.nextStripe() {
			ctx.hashSymbolic(w, a, b, in.flopRow, in.offsets[s], in.offsets[s+1], rowNnz, pt.worker(w))
		}
	})
	pt.tick(PhaseSymbolic)

	in.rowPtr = sched.PrefixSum(rowNnz, ctx.rowPtrBuf(a.Rows), workers)
	return in, pt
}

// execute runs the value-dependent phases of an inspected product: bind the
// output to rowPtr (PhaseAlloc), fill it stripe by stripe (PhaseNumeric) and,
// when the stripes went to a sink, have it assemble them (PhaseAssemble). ctx
// need not be the Context inspect ran on but must hold in.workers worker
// slots. rowPtr is in.rowPtr or a copy of it and belongs to the result from
// here on. A nil sink is the output itself: every stripe's window is its own
// rows' slice of the result, written in place.
func execute[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], ctx *ContextG[V], in *inspection[V], rowPtr []int64, unsorted bool, sink *SpillSink[V], pt *phaseTimer) (*matrix.CSRG[V], error) {
	if in.onePhase() {
		return onePhaseExecute(ring, a, b, ctx, in, rowPtr, nil, pt), nil
	}
	c, errs, err := ctx.bindOutput(sink, in.stripes(), a.Rows, b.Cols, rowPtr, !unsorted)
	if err != nil {
		return nil, err
	}
	pt.tick(PhaseAlloc)

	ctx.runWorkers(in.workers, func(w int) {
		ws := pt.worker(w) // stripes sharing a worker slot accumulate into it
		for s := w; s < in.stripes(); s = ctx.nextStripe() {
			lo, hi := in.offsets[s], in.offsets[s+1]
			base := rowPtr[lo]
			var cols []int32
			var vals []V
			if sink == nil {
				cols, vals = c.ColIdx[base:rowPtr[hi]], c.Val[base:rowPtr[hi]]
			} else if cols, vals, errs[s] = sink.Stripe(s, lo, hi); errs[s] != nil {
				continue
			}
			if lo < hi {
				flop, max := rangeFlopMax(in.flopRow, lo, hi)
				bound := capBound(max, b.Cols)
				h := newHashNumeric(ring, ctx, w, a, b, flop, bound, !unsorted)
				h.bind(cols, vals)
				h.rows(in.flopRow, rowPtr, lo, hi, base)
				h.report(ws)
				if ws != nil {
					ws.Rows += int64(hi - lo)
					ws.Flop += flop
				}
			}
			if sink != nil {
				errs[s] = sink.Commit(s)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	pt.tick(PhaseNumeric)
	out := c // not c itself: assigned once, the workers' closure holds it by value
	if sink != nil {
		if out, err = sink.Assemble(); err != nil {
			return nil, err
		}
		pt.tick(PhaseAssemble)
	}
	in.fillStripeStats(pt.st, rowPtr, sink != nil)
	pt.finish()
	return out, nil
}

// bindOutput readies where the stripes land: the output shell when sink is
// nil, else the sink and one error slot per stripe — a sink can fail, the
// shell cannot.
func (c *ContextG[V]) bindOutput(sink *SpillSink[V], stripes, rows, cols int, rowPtr []int64, sorted bool) (*matrix.CSRG[V], []error, error) {
	if sink == nil {
		return c.outputShell(rows, cols, rowPtr, sorted), nil, nil
	}
	return nil, make([]error, stripes), sink.Bind(rows, cols, rowPtr, sorted)
}

// inspectExecute is the one-shot driver.
func inspectExecute[V semiring.Value, R semiring.Ring[V]](ring R, alg Algorithm, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	ctx := opt.ctx()
	in, pt := inspect(alg, a, b, nil, opt, ctx, false)
	return execute(ring, a, b, ctx, in, in.rowPtr, opt.Unsorted, opt.ShardSink, pt)
}
