package spgemm

import (
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// The one-column route. Where B has at most one column, Figure 7's bound
// min(flop, Cols) is at most 1 on every row: a row's size is known as soon as
// its first product is, and its entry is its products folded in product
// order. So a one-shot Hash product into one column (multi-source BFS's
// packed level, Aᵀ·F at ≤ 64 sources) is one pass over A: no flop pre-pass,
// no flop partition, no symbolic pass and no accumulator. Each stripe of A's
// rows writes its rows' values and sizes at the rows' own indices, in a
// Context buffer and the row-pointer array; a serial squeeze then sums the
// sizes into row pointers and packs the values, and the output is drawn at
// nnz(C) like a two-phase product's. Each ring's fold leaves what
// oneEntryRow leaves, so the output is bit-identical to the two-phase
// product's.

// columnProduct is MultiplyRing's route for a one-shot Hash product whose B
// has at most one column and for which the caller named no geometry (no
// ShardSink, no ShardMemBudget). Its stripes are cut by A's nnz, the flop
// being unknown until the pass has run, in the one stripe rule's count with
// nnz(A) standing in for the flop. It reports the pass as PhaseNumeric, the
// output's draws as PhaseAlloc and the squeeze as PhaseAssemble; every
// product is written without an accumulator (DirectFlop == Flop), and
// ExecStats.Stripes stays empty.
func columnProduct[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V], ctx *ContextG[V]) *matrix.CSRG[V] {
	workers, stripes := opt.workersFor(a.Rows), 1
	if workers > 1 {
		stripes = int(max(1, min(int64(claimStripes*workers), a.RowPtr[a.Rows]/minStripeFlop, int64(a.Rows))))
		workers = min(workers, stripes)
	}
	ctx.pt = startPhases(opt.Stats, AlgHash, workers)
	pt := &ctx.pt
	rowPtr := ctx.rowPtrBuf(a.Rows)
	vals := tempBuf(&ctx.tmpVals, int64(a.Rows))
	pt.tick(PhaseAlloc)

	// or-and<u64> folds in Go's own & and | (orAndColumnRows), every other
	// ring through its dictionary (columnRows): one check per call, outside
	// the row loop. A ring of type OrAndU64 fixes V to uint64, so the
	// assertions hold.
	var ua, ub *matrix.CSRG[uint64]
	var uvals, bWords []uint64
	_, orAnd := any(ring).(semiring.OrAndU64)
	if orAnd {
		ua, ub = any(a).(*matrix.CSRG[uint64]), any(b).(*matrix.CSRG[uint64])
		uvals = any(vals).([]uint64)
		bWords = orRows(ub, &ctx.colWords)
	}
	ctx.eachStripe(workers, stripes, func(_, s int, ws *WorkerStats) {
		lo, hi := nnzStripe(a.RowPtr, s, stripes)
		var flop int64
		if orAnd {
			flop = orAndColumnRows(ua, ub, bWords, lo, uvals[lo:hi], rowPtr[lo+1:hi+1])
		} else {
			flop = columnRows(ring, a, b, lo, vals[lo:hi], rowPtr[lo+1:hi+1])
		}
		mFlop.Add(flop)
		if ws != nil {
			ws.Rows += int64(hi - lo)
			ws.Flop += flop
			ws.DirectFlop += flop
		}
	})
	pt.tick(PhaseNumeric)

	// rowPtr[i+1] holds row i's size, 0 or 1, and vals[i] its value if 1: a
	// row's value moves down to its entry's index, never past its own.
	var nnz int64
	rowPtr[0] = 0
	for i, n := range rowPtr[1:] {
		vals[nnz] = vals[i]
		nnz += n
		rowPtr[i+1] = nnz
	}
	pt.tick(PhaseAssemble)
	c := ctx.outputShell(a.Rows, b.Cols, rowPtr, !opt.Unsorted)
	pt.tick(PhaseAlloc)
	copy(c.Val, vals[:nnz])
	clear(c.ColIdx) // the one column
	pt.tick(PhaseAssemble)
	pt.finish()
	return c
}

// columnRows folds rows [lo, lo+len(vals)) of A·B, B of at most one
// column, into vals through the ring's dictionary, writes each row's size (1
// where it has a product, else 0) into sizes, and returns the rows' flop: a
// row's products are counted first, and a row with any is oneEntryRow's. A
// row without a product leaves its slot of vals as it was.
//
//spgemm:hotpath
func columnRows[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], lo int, vals []V, sizes []int64) (flop int64) {
	sizes = sizes[:len(vals)]
	arp := a.RowPtr[lo : lo+len(vals)+1]
	for r := range vals {
		var n int64
		for _, k := range a.ColIdx[arp[r]:arp[r+1]] {
			brp := b.RowPtr[k : int(k)+2]
			n += brp[1] - brp[0]
		}
		if n != 0 {
			_, vals[r] = oneEntryRow(ring, a, b, lo+r)
		}
		sizes[r] = min(n, 1)
		flop += n
	}
	return flop
}

// orRows ORs each row of B into one word, drawn in scratch: | is exact,
// associative and commutative, so av&b1 | av&b2 is av & (b1|b2), and an empty
// row's 0 is the identity. orAndColumnRows then reads one word per product
// with no load that waits on B's row pointers. A row of one entry or none —
// every row of a canonical B — takes no branch: its first value, read at its
// offset clamped into B's values, masked by its length.
func orRows(b *matrix.CSRG[uint64], scratch *[]uint64) []uint64 {
	bRows := tempBuf(scratch, int64(b.Rows))
	if len(b.Val) == 0 {
		clear(bRows)
		return bRows
	}
	rp, last := b.RowPtr[:len(bRows)+1], int64(len(b.Val)-1)
	for k := range bRows {
		lo, hi := rp[k], rp[k+1]
		v := b.Val[min(lo, last)] & -uint64(min(hi-lo, 1))
		for _, bv := range b.Val[min(lo+1, hi):hi] {
			v |= bv
		}
		bRows[k] = v
	}
	return bRows
}

// orAndColumnRows is columnRows for or-and<u64> in Go's own & and |, against
// B's rows ORed into bRows: v |= av & bRows[k] from 0, the identity, which
// leaves the first product as the entry as oneEntryRow does.
//
//spgemm:hotpath
func orAndColumnRows(a, b *matrix.CSRG[uint64], bRows []uint64, lo int, vals []uint64, sizes []int64) (flop int64) {
	brp := b.RowPtr[:len(bRows)+1]
	sizes = sizes[:len(vals)]
	arp := a.RowPtr[lo : lo+len(vals)+1]
	for r := range vals {
		acols := a.ColIdx[arp[r]:arp[r+1]]
		avals := a.Val[arp[r]:arp[r+1]]
		avals = avals[:len(acols)]
		var v uint64
		var n int64
		for x, k := range acols {
			v |= avals[x] & bRows[k]
			n += brp[k+1] - brp[k]
		}
		vals[r], sizes[r] = v, min(n, 1)
		flop += n
	}
	return flop
}
