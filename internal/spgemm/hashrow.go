package spgemm

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// The whole-row hash kernel, written once. Hash, HashVector's symbolic
// phase, the light rows of Tiled, the stripes of Sharded, every Plan build
// and replay of those, and the recipe's compression-ratio sample all
// run the two row functions below, which each take one exact decision from
// numbers the phases compute anyway:
//
//   - Symbolic counts a row's distinct columns with generation stamps over
//     B's column space when that space is no larger than the flop of the
//     rows the worker counts (Cols <= flop), with hash probes otherwise. The
//     rule needs no constant: under it the O(Cols) array is never larger
//     than the work it replaces, so even a one-shot call's zeroing is paid
//     for, while hypersparse products — where a per-thread O(Cols) array is
//     the paper's Section 4.2.3 objection to SPA — keep Figure 7's table.
//   - Numeric writes a row whose symbolic size equals its flop, when the
//     caller wants unsorted output, as the concatenation of the scaled B
//     rows: no two products share a column, so the table would only hand
//     every product a fresh slot and copy it back in insertion order, which
//     is product order. The output is bit-identical to Upsert +
//     ExtractUnsorted. Rows with a repeated column and every sorted request
//     keep the table.
//
// A product under an output mask (Options.Mask, AlgHash only) runs the same
// driver with the masked pair at the end of this file in place of those two:
// neither decision applies to it — a masked row's size is not its flop, and
// its symbolic count is bounded by the mask row, not by B's column space.

// capBound clamps an accumulator size bound at the number of output columns
// (a row cannot have more distinct entries than columns) — the min(Ncol,
// size) of the paper's Figure 7. A matrix with no columns needs no
// accumulator capacity at all, so cols == 0 yields 0 (the accumulator
// constructors apply their own minimum capacities).
//
//spgemm:hotpath
func capBound(bound int64, cols int) int64 {
	if bound > int64(cols) {
		bound = int64(cols)
	}
	if bound < 0 {
		bound = 0
	}
	return bound
}

// rangeFlopMax returns the sum and the largest entry of flopRow over
// [lo, hi): a worker's flop and its accumulator bound before capBound.
func rangeFlopMax(flopRow []int64, lo, hi int) (sum, max int64) {
	for _, f := range flopRow[lo:hi] {
		sum += f
		if f > max {
			max = f
		}
	}
	return sum, max
}

// rowCounter is one worker's symbolic accumulator: stamps or a hash table,
// never both.
type rowCounter[V semiring.Value] struct {
	stamps *accum.StampSet
	table  *accum.HashTableG[V]
}

// rowCounter picks worker w's symbolic accumulator for rows carrying flop
// products, none of them more than bound (already capped at cols) per row.
// This is the only place the stamp/hash choice is made.
func (c *ContextG[V]) rowCounter(w, cols int, flop, bound int64) rowCounter[V] {
	if int64(cols) <= flop {
		return rowCounter[V]{stamps: c.stampSet(w, cols)}
	}
	return rowCounter[V]{table: c.hashTable(w, bound)}
}

// count returns the number of distinct columns in row i of A·B.
//
//spgemm:hotpath
func (rc *rowCounter[V]) count(a, b *matrix.CSRG[V], i int) int64 {
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	acols := a.ColIdx[alo:ahi]
	if st := rc.stamps; st != nil {
		st.Clear()
		n := 0
		for _, k := range acols {
			brp := b.RowPtr[k : int(k)+2]
			n += st.CountNew(b.ColIdx[brp[0]:brp[1]])
		}
		return int64(n)
	}
	table := rc.table
	table.Reset()
	for _, k := range acols {
		brp := b.RowPtr[k : int(k)+2]
		for _, col := range b.ColIdx[brp[0]:brp[1]] {
			table.InsertSymbolic(col)
		}
	}
	return int64(table.Len())
}

// hashSymbolic is worker w's symbolic pass: the output size of every row of
// [lo, hi) with a non-zero weight goes to rowNnz (the rest stay as the
// caller zeroed them — tiled callers zero the weights of heavy rows). ws may
// be nil.
func (c *ContextG[V]) hashSymbolic(w int, a, b *matrix.CSRG[V], flopRow []int64, lo, hi int, rowNnz []int64, ws *WorkerStats) {
	flop, max := rangeFlopMax(flopRow, lo, hi)
	if flop == 0 {
		return
	}
	rc := c.rowCounter(w, b.Cols, flop, capBound(max, b.Cols))
	for i := lo; i < hi; i++ {
		if flopRow[i] != 0 {
			rowNnz[i] = rc.count(a, b, i)
		}
	}
	if ws != nil {
		if rc.stamps != nil {
			ws.StampMarks += flop
		} else {
			ws.HashLookups += rc.table.Lookups()
			ws.HashProbes += rc.table.Probes()
		}
	}
}

// hashNumeric is one worker's numeric state: the operands, the table, and
// the output window its rows land in. When the ring is the float64
// plus-times flagship, fa/fb/ftab/fvals are the same objects under their
// concrete types (one assertion per worker, see ringfast.go) and rows run
// the monomorphized twin.
type hashNumeric[V semiring.Value, R semiring.Ring[V]] struct {
	ring   R
	table  *accum.HashTableG[V]
	a, b   *matrix.CSRG[V]
	cols   []int32
	vals   []V
	sorted bool
	direct int64 // flop written by concatenation

	fa, fb *matrix.CSR
	ftab   *accum.HashTable
	fvals  []float64
}

func newHashNumeric[V semiring.Value, R semiring.Ring[V]](ring R, table *accum.HashTableG[V], a, b *matrix.CSRG[V], cols []int32, vals []V, sorted bool) hashNumeric[V, R] {
	h := hashNumeric[V, R]{ring: ring, table: table, a: a, b: b, cols: cols, vals: vals, sorted: sorted}
	h.fa, h.fb, h.ftab, h.fvals, _ = ptF64Hash(ring, a, b, table, vals)
	return h
}

// row writes the n entries of row i of A·B at offset start of the window.
// This is the only place the concatenate/table choice is made.
//
//spgemm:hotpath
func (h *hashNumeric[V, R]) row(i int, start, n, flop int64) {
	direct := !h.sorted && n == flop
	if direct {
		h.direct += flop
	}
	cols := h.cols[start : start+n]
	if h.fa != nil {
		hashRowNumericF64(h.ftab, h.fa, h.fb, i, cols, h.fvals[start:start+n], direct, h.sorted)
	} else {
		hashRowNumeric(h.ring, h.table, h.a, h.b, i, cols, h.vals[start:start+n], direct, h.sorted)
	}
}

// rows runs row over every row of [lo, hi) with a non-zero weight. base is
// the output offset of the window's first entry.
func (h *hashNumeric[V, R]) rows(flopRow, rowPtr []int64, lo, hi int, base int64) {
	for i := lo; i < hi; i++ {
		if flopRow[i] != 0 {
			h.row(i, rowPtr[i]-base, rowPtr[i+1]-rowPtr[i], flopRow[i])
		}
	}
}

// report adds the pass's accumulator counters to ws, which may be nil.
func (h *hashNumeric[V, R]) report(ws *WorkerStats) {
	if ws != nil {
		ws.HashLookups += h.table.Lookups()
		ws.HashProbes += h.table.Probes()
		ws.DirectFlop += h.direct
	}
}

// hashRowNumeric computes row i of A·B into cols/vals, which are exactly the
// row's size: by concatenation when direct, else through table with sorted
// or insertion-order extraction. hashRowNumericF64 is its float64
// plus-times twin; the two must fold in the same order.
//
//spgemm:hotpath
func hashRowNumeric[V semiring.Value, R semiring.Ring[V]](ring R, table *accum.HashTableG[V], a, b *matrix.CSRG[V], i int, cols []int32, vals []V, direct, sorted bool) {
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	acols := a.ColIdx[alo:ahi]
	avals := a.Val[alo:ahi]
	if direct {
		for x, k := range acols {
			av := avals[x]
			brp := b.RowPtr[k : int(k)+2]
			bvals := b.Val[brp[0]:brp[1]]
			n := copy(cols, b.ColIdx[brp[0]:brp[1]])
			out := vals[:n]
			for y := range out {
				out[y] = ring.Mul(av, bvals[y])
			}
			cols, vals = cols[n:], vals[n:]
		}
		return
	}
	table.Reset()
	for x, k := range acols {
		av := avals[x]
		brp := b.RowPtr[k : int(k)+2]
		bvals := b.Val[brp[0]:brp[1]]
		for y, col := range b.ColIdx[brp[0]:brp[1]] {
			prod := ring.Mul(av, bvals[y])
			slot, fresh := table.Upsert(col)
			if fresh {
				*slot = prod
			} else {
				*slot = ring.Add(*slot, prod)
			}
		}
	}
	if sorted {
		table.ExtractSorted(cols, vals)
	} else {
		table.ExtractUnsorted(cols, vals)
	}
}

// loadMask fills set with the column pattern of mask row i. Only the mask's
// structure matters; its values are never read.
func loadMask[V semiring.Value](set *accum.HashTableG[V], mask *matrix.CSRG[V], i int) {
	set.Reset()
	for _, col := range mask.ColIdx[mask.RowPtr[i]:mask.RowPtr[i+1]] {
		set.InsertSymbolic(col)
	}
}

// maskedRowCount is rowCounter.count under an output mask: the number of
// distinct columns of row i of A·B that row i of mask admits. set is the
// worker's mask table, table its accumulator.
func maskedRowCount[V semiring.Value](set, table *accum.HashTableG[V], a, b, mask *matrix.CSRG[V], i int) int64 {
	loadMask(set, mask, i)
	table.Reset()
	for _, k := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
		brp := b.RowPtr[k : int(k)+2]
		for _, col := range b.ColIdx[brp[0]:brp[1]] {
			if _, ok := set.Lookup(col); ok {
				table.InsertSymbolic(col)
			}
		}
	}
	return int64(table.Len())
}

// maskedRowNumeric is hashRowNumeric under an output mask: products whose
// column row i of mask does not admit are dropped before they reach the
// table; the rest fold in product order, so the row is what the unmasked
// kernel would produce with the other entries removed.
func maskedRowNumeric[V semiring.Value, R semiring.Ring[V]](ring R, set, table *accum.HashTableG[V], a, b, mask *matrix.CSRG[V], i int, cols []int32, vals []V, sorted bool) {
	loadMask(set, mask, i)
	table.Reset()
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	acols := a.ColIdx[alo:ahi]
	avals := a.Val[alo:ahi]
	for x, k := range acols {
		av := avals[x]
		brp := b.RowPtr[k : int(k)+2]
		bvals := b.Val[brp[0]:brp[1]]
		for y, col := range b.ColIdx[brp[0]:brp[1]] {
			if _, ok := set.Lookup(col); !ok {
				continue
			}
			prod := ring.Mul(av, bvals[y])
			slot, fresh := table.Upsert(col)
			if fresh {
				*slot = prod
			} else {
				*slot = ring.Add(*slot, prod)
			}
		}
	}
	if sorted {
		table.ExtractSorted(cols, vals)
	} else {
		table.ExtractUnsorted(cols, vals)
	}
}

// maskedSymbolic is hashSymbolic for the masked product in describes: worker
// w's pass over the rows of [lo, hi).
func (c *ContextG[V]) maskedSymbolic(w int, a, b *matrix.CSRG[V], in *inspection[V], lo, hi int, rowNnz []int64, ws *WorkerStats) {
	_, max := rangeFlopMax(in.flopRow, lo, hi)
	if max == 0 {
		return
	}
	set := c.maskTable(w, in.maskBound)
	table := c.hashTable(w, capBound(max, b.Cols))
	for i := lo; i < hi; i++ {
		if in.flopRow[i] != 0 {
			rowNnz[i] = maskedRowCount(set, table, a, b, in.mask, i)
		}
	}
	if ws != nil {
		ws.HashLookups += table.Lookups()
		ws.HashProbes += table.Probes()
	}
}

// maskedRows is hashNumeric.rows for a masked product; set is the worker's
// mask table.
func (h *hashNumeric[V, R]) maskedRows(set *accum.HashTableG[V], mask *matrix.CSRG[V], flopRow, rowPtr []int64, lo, hi int, base int64) {
	for i := lo; i < hi; i++ {
		if flopRow[i] != 0 {
			start, end := rowPtr[i]-base, rowPtr[i+1]-base
			maskedRowNumeric(h.ring, set, h.table, h.a, h.b, mask, i, h.cols[start:end], h.vals[start:end], h.sorted)
		}
	}
}
