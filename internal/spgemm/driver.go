package spgemm

import (
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// The driver. Hash SpGEMM is the paper's two-phase pipeline (Figure 7)
// over one row geometry, and the pipeline has one seam: once the symbolic
// phase has sized the output, everything that depends on the operands'
// structure is known and only values remain. inspect runs up to that seam
// and returns an inspection; execute runs from it. A one-shot Multiply is
// execute(inspect(...)) with no copy in between; a Plan is an inspection
// cloned out of the Context's buffers, executed as often as the caller likes
// (plan.go). So execute runs every product whose row pointers are known:
// two-phase Hash and every Plan's kernel execution, a Heap Plan's included.
// The second executor, onePhaseExecute (heap.go), runs the products that
// size themselves by producing their rows: one-shot Heap, whose inspection
// ends at the partition, and the one-pass route, an unsorted Hash product in
// one stripe at compression ratio about 1, whose flop already bounds its
// output. A one-shot Hash product whose B has at most one column needs no
// inspection at all: every row's size is 0 or 1 as soon as its first product
// is found, so MultiplyRing hands it to columnProduct (column.go), one pass
// over A cut by nnz, with no flop pre-pass, partition, symbolic pass or
// accumulator. The pattern count (MaskedCount) stores no product at all: it
// shares the partition (begin) and the stripe claim, nothing past them.
//
// The geometry is data: a flop-balanced cut of the rows into stripes
// (Figure 6). Each parallel region runs the same loop over the stripes, a
// stripe's rows going through the whole-row passes of hashrow.go into the
// stripe's window of the output. One rule counts them (claimStripes):
// claimStripes per worker at W > 1, and for Hash at least as many as keep a
// stripe's output within its memory budget (shard.go), which it may land in
// a sink. Nothing past the cut asks which of them is running, the schedule
// included: every region claims its stripes in one place
// (ContextG.eachStripe), worker w starting on stripe w and then taking
// whichever stripe nobody has started. Cut one per worker, nothing is left
// to take and that is the paper's static mapping; cut finer, the rest flow
// through the pool one at a time, so a slow stripe or a blocking sink holds
// back only the worker on it.
//
// Both halves are generic over the ring with concrete accumulator types, so
// the symbolic insert and numeric accumulate compile to direct calls: these
// are the paper's contribution, and routing them through an accumulator
// interface (as the figure baselines of internal/bench/baseline do) would tax
// exactly the algorithms it optimizes. Generics alone do not devirtualize the
// ring — Go's shape stenciling passes Add/Mul through a runtime dictionary —
// so each numeric window takes its row bodies from bodiesFor, once, outside
// the row loop: plus-times over float64 folds in Go's own * and +
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
	// one-shot one-phase product, whose execution is what sizes the output
	// (onePhaseExecute).
	rowPtr []int64

	// offsets is the whole-row pass's flop-balanced cut of the rows into
	// stripes, len(offsets)-1 of them.
	offsets []int

	onePass bool       // the one-pass route (inspect): onePassRow's geometry
	dense   bool       // denseRule on the flop a worker serves, however fine the cut
	masks   *wordMasks // B's (ContextG.wordMasks) or nil; a Plan's clone drops them
}

// claimStripes is the one stripe rule's stripes per worker at W > 1: a row's
// cost is not its flop (a merged, a cut or a bitmap row's), so a static flop
// cut can leave one worker the slow rows; finer stripes let the others claim
// the rest. A two-phase product cuts at most one per minStripeFlop or row and
// at least its budget's count (shardStripes, never fewer than W). 16 won a
// sweep over 4, 8 and 16 on triangle counting's L·U as masked row sums; on
// the pattern count (MaskedCount) 16 and 8 tie and 4 reads busy max/min
// 1.14–1.24 (EXPERIMENTS.md).
const claimStripes = 16

// minStripeFlop is the least flop of a claimed two-phase stripe, worth its
// fixed costs; 4096 read neutral on MSBFS's many small products. The
// one-column route holds nnz(A) to it, its flop being unknown (column.go).
const minStripeFlop = 4096

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
	out.masks = nil
	return out
}

// begin is the prologue every product shares, the pattern count's included:
// the workers, the phase timer, the per-row flop, denseRule on the flop a
// worker serves, and the one stripe rule's cut of the rows (claimStripes),
// which for a twoPhase product is bounded by minStripeFlop and raised to its
// budget's count. Both results are ctx's own (ctx.in, ctx.pt), not
// allocations; the partition's time is the next tick's.
func begin[V semiring.Value](alg Algorithm, a, b *matrix.CSRG[V], opt *OptionsG[V], ctx *ContextG[V], twoPhase bool) (*inspection[V], *phaseTimer) {
	workers := opt.workersFor(a.Rows)
	ctx.ensureWorkers(workers)
	ctx.pt = startPhases(opt.Stats, alg, workers)
	ctx.in = inspection[V]{alg: alg, workers: workers, flopRow: ctx.perRowFlop(a, b)}
	in := &ctx.in
	flop := rangeFlop(in.flopRow, 0, a.Rows)
	stripes := 1 // the one stripe rule (claimStripes)
	if workers > 1 {
		stripes = claimStripes * workers
	}
	if twoPhase {
		stripes = max(opt.shardStripes(flop, a.Rows, workers), int(min(int64(stripes), flop/minStripeFlop, int64(a.Rows))))
	}
	in.offsets = ctx.partition(in.flopRow, stripes, workers)
	in.dense = denseRule(b.Cols, flop/int64(workers))
	return in, &ctx.pt
}

// inspect runs the structure-only phases of alg on ctx: begin's partition
// (PhasePartition), the symbolic pass (PhaseSymbolic) and the row-pointer
// prefix sum, which the next tick of the returned timer charges to whatever
// the caller does next. forPlan asks for the one thing a replay needs that a
// one-shot multiply does not: the row pointers of a one-phase product.
func inspect[V semiring.Value](alg Algorithm, a, b *matrix.CSRG[V], opt *OptionsG[V], ctx *ContextG[V], forPlan bool) (*inspection[V], *phaseTimer) {
	in, pt := begin(alg, a, b, opt, ctx, alg != AlgHeap)
	// The one-pass route: an unsorted one-shot Hash product in one stripe
	// and without a sink, whose running offset is its row pointer, on stamps
	// and the SPA by denseRule and at a ratio the recipe's sample, run on
	// ctx's worker-0 counter, reads as about 1.
	in.onePass = !forPlan && opt.Unsorted && alg == AlgHash && opt.ShardSink == nil && in.stripes() == 1 &&
		in.dense && ctx.compressionRatio(a, b, recipeSampleRows) <= onePassMaxCR
	pt.tick(PhasePartition)
	if (alg == AlgHeap || in.onePass) && !forPlan {
		return in, pt // a row bounded before it is computed: onePhaseExecute
	}
	// A Heap Plan counts with Hash's symbolic pass: the number of distinct
	// columns does not depend on the numeric accumulator.
	rowNnz := ctx.rowNnzBuf(a.Rows)
	in.masks = ctx.wordMasks(a, b, in)
	ctx.eachStripe(in.workers, in.stripes(), func(w, s int, ws *WorkerStats) {
		ctx.hashSymbolic(w, a, b, in, in.offsets[s], in.offsets[s+1], rowNnz, ws)
	})
	pt.tick(PhaseSymbolic)

	in.rowPtr = sched.PrefixSum(rowNnz, ctx.rowPtrBuf(a.Rows), in.workers)
	return in, pt
}

// execute runs the value-dependent phases of an inspected product: bind the
// output to rowPtr (PhaseAlloc), fill it stripe by stripe (PhaseNumeric) and,
// when the stripes went to a sink, have it assemble them (PhaseAssemble). ctx
// need not be the Context inspect ran on but must hold in.workers worker
// slots. rowPtr is in.rowPtr or a copy of it and belongs to the result from
// here on; nil, the product sizes itself (onePhaseExecute). A nil sink is the
// output itself: every stripe's window is its own rows' slice of the result,
// written in place. A Heap Plan merges each row straight into its place, and
// its output is sorted however unsorted asks.
func execute[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], ctx *ContextG[V], in *inspection[V], rowPtr []int64, unsorted bool, sink *SpillSink[V], pt *phaseTimer) (*matrix.CSRG[V], error) {
	if rowPtr == nil {
		return onePhaseExecute(ring, a, b, ctx, in, pt), nil
	}
	sorted := !unsorted || in.alg == AlgHeap
	var c *matrix.CSRG[V]
	var errs []error // one slot per stripe: a sink can fail, the shell cannot
	if sink == nil {
		c = ctx.outputShell(a.Rows, b.Cols, rowPtr, sorted)
	} else if err := sink.Bind(a.Rows, b.Cols, rowPtr, sorted); err != nil {
		return nil, err
	} else {
		errs = make([]error, in.stripes())
	}
	pt.tick(PhaseAlloc)

	ctx.eachStripe(in.workers, in.stripes(), func(w, s int, ws *WorkerStats) {
		lo, hi := in.offsets[s], in.offsets[s+1]
		base := rowPtr[lo]
		var cols []int32
		var vals []V
		if sink == nil {
			cols, vals = c.ColIdx[base:rowPtr[hi]], c.Val[base:rowPtr[hi]]
		} else if cols, vals, errs[s] = sink.Stripe(s, lo, hi); errs[s] != nil {
			return
		}
		if lo < hi {
			flop, max := rangeFlopMax(in.flopRow, lo, hi)
			if in.alg == AlgHeap {
				h := ctx.mergeHeap(w, 8) // first-use hint: the heap grows to its widest row
				for i := lo; i < hi; i++ {
					heapRow(ring, a, b, i, h, cols[rowPtr[i]-base:], vals[rowPtr[i]-base:])
				}
				if ws != nil {
					ws.HeapPushes += h.Pushes()
				}
			} else {
				h := newHashNumeric(ring, ctx, w, a, b, in.dense, in.masks, capBound(max, b.Cols), sorted)
				h.bind(cols, vals)
				h.rows(in.flopRow, rowPtr, lo, hi, base)
				h.report(ws)
			}
			if ws != nil {
				ws.Rows += int64(hi - lo)
				ws.Flop += flop
			}
		}
		if sink != nil {
			errs[s] = sink.Commit(s)
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
		var err error
		if out, err = sink.Assemble(); err != nil {
			return nil, err
		}
		pt.tick(PhaseAssemble)
	}
	in.fillStripeStats(pt.st, rowPtr, sink != nil)
	pt.finish()
	return out, nil
}
