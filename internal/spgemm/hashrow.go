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
// The one-phase geometry's other two row functions (heap.go) are here too.
// A product under an output mask (Options.Mask, AlgHash only) runs neither
// of the above: its mask row bounds row i of (A·B).*M — maskedRow, one index
// lookup per product, no accumulator table, no symbolic pass, B streamed once.
// On the one-pass route (driver.go) numeric decides without symbolic's count:
// onePassRow stamps and copies, and gives the table the rows whose stamps see
// a column twice — the rows numeric would — so B is streamed once.

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

// onePassRow writes row i of A·B, unsorted, from the start of cols/vals
// (room for its flop): each B row's columns are stamped and copied, its
// values scaled behind them. On the first column already stamped the row is
// redone through table, as two-phase numeric does a row whose count fell
// short of its flop. It returns the row's size (the flop unless the table
// ran) and the products it tested. onePassRowF64 is its float64 twin.
//
//spgemm:hotpath
func onePassRow[V semiring.Value, R semiring.Ring[V]](ring R, st *accum.StampSet, table *accum.HashTableG[V], a, b *matrix.CSRG[V], i int, cols []int32, vals []V) (n, marks int) {
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	acols := a.ColIdx[alo:ahi]
	avals := a.Val[alo:ahi]
	st.Clear()
	for x, k := range acols {
		brp := b.RowPtr[k : int(k)+2]
		bcols := b.ColIdx[brp[0]:brp[1]]
		if c := st.CopyNew(cols[n:], bcols); c < len(bcols) {
			hashRowNumeric(ring, table, a, b, i, cols, vals, false, false)
			return table.Len(), n + c + 1
		}
		av := avals[x]
		bvals := b.Val[brp[0]:brp[1]]
		out := vals[n : n+len(bvals)]
		for y, bv := range bvals {
			out[y] = ring.Mul(av, bv)
		}
		n += len(bvals)
	}
	return n, n
}

// onePassRows is the one-pass route's numeric pass: every row of A·B (flop
// products, at most max in one) in order through onePassRow straight into c,
// whose arrays hold flop entries or a donation of any size; the running
// offset is the row pointer. A row whose flop overflows what is left is
// counted first and written as two-phase numeric would, and only one whose
// count overflows too grows c, to hold every later row at its flop.
func onePassRows[V semiring.Value, R semiring.Ring[V]](ring R, ctx *ContextG[V], a, b *matrix.CSRG[V], flopRow []int64, flop, max int64, c *matrix.CSRG[V], ws *WorkerStats) {
	rc := rowCounter[V]{stamps: ctx.stampSet(0, b.Cols)}
	h := newHashNumeric(ring, ctx.hashTable(0, capBound(max, b.Cols)), a, b, c.ColIdx, c.Val, false)
	var pos, marks, direct int64
	rest := flop
	for i, f := range flopRow {
		c.RowPtr[i] = pos
		rest -= f
		var n, m int
		switch room := int64(min(len(c.ColIdx), len(c.Val))); {
		case f == 0:
		case pos+f <= room && h.fa != nil:
			n, m = onePassRowF64(rc.stamps, h.ftab, h.fa, h.fb, i, c.ColIdx[pos:], h.fvals[pos:])
		case pos+f <= room:
			n, m = onePassRow(ring, rc.stamps, h.table, a, b, i, c.ColIdx[pos:], c.Val[pos:])
		default:
			n, m = int(rc.count(a, b, i)), int(f)
			if pos+int64(n) > room {
				c.ColIdx = regrow(&ctx.outCols, c.ColIdx, pos, pos+int64(n)+rest)
				c.Val = regrow(&ctx.outVals, c.Val, pos, pos+int64(n)+rest)
				h = newHashNumeric(ring, h.table, a, b, c.ColIdx, c.Val, false)
			}
			h.row(i, pos, int64(n), f)
		}
		if int64(n) == f {
			direct += f
		}
		pos, marks = pos+int64(n), marks+int64(m)
	}
	c.RowPtr[a.Rows] = pos
	c.ColIdx, c.Val = c.ColIdx[:pos], c.Val[:pos]
	h.direct = direct // h.row's own count does not survive c growing
	if ws != nil {
		ws.Rows, ws.Flop, ws.StampMarks = int64(a.Rows), flop, marks
	}
	h.report(ws)
}

// maskedRow computes row i of (A·B).*M, mcols being row i of M, into the
// first len(mcols) entries of cols/vals and returns how many it produced. The
// index — dense over B's columns and all zero between rows, or table, never
// both — maps a column of the mask row to its slot in that window, as slot+1
// so that zero means absent; a column the row repeats owns its last slot. A
// product lands on its column's slot — the first stored, later ones folded
// with ring.Add in product order, which is hashRowNumeric's — and the touched
// slots are then compacted leftwards: an entry exists iff a product landed on
// it, whatever its value, and the row ascends if the mask row does; sort is
// set when it must and the mask row may not. cols[s] < 0 marks slot s untouched.
//
//spgemm:hotpath
func maskedRow[V semiring.Value, R semiring.Ring[V]](ring R, dense []int32, table *accum.HashTableG[int32], a, b *matrix.CSRG[V], mcols []int32, i int, cols []int32, vals []V, sort bool) int {
	cols, vals = cols[:len(mcols)], vals[:len(mcols)]
	if table != nil {
		table.Reset()
	}
	for s, col := range mcols {
		cols[s] = -1
		if dense != nil {
			dense[col] = int32(s) + 1
		} else {
			slot, _ := table.Upsert(col)
			*slot = int32(s) + 1
		}
	}
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	acols, avals := a.ColIdx[alo:ahi], a.Val[alo:ahi]
	for x, k := range acols {
		av := avals[x]
		brp := b.RowPtr[k : int(k)+2]
		bvals := b.Val[brp[0]:brp[1]]
		for y, col := range b.ColIdx[brp[0]:brp[1]] {
			var e int32
			if dense != nil {
				e = dense[col]
			} else {
				e, _ = table.Lookup(col)
			}
			if e == 0 {
				continue
			}
			prod := ring.Mul(av, bvals[y])
			if s := e - 1; cols[s] < 0 {
				cols[s], vals[s] = col, prod
			} else {
				vals[s] = ring.Add(vals[s], prod)
			}
		}
	}
	n := 0
	for s, col := range cols {
		if col >= 0 {
			cols[n], vals[n] = col, vals[s]
			n++
		}
	}
	if dense != nil { // unloaded by re-walking the row: no generation counter
		for _, col := range mcols {
			dense[col] = 0
		}
	}
	if sort {
		accum.SortPairs(cols[:n], vals[:n])
	}
	return n
}

// maskedRows is worker w's pass over the rows of [lo, hi), flop products in
// all, of a one-shot masked product: each row goes through maskedRow into the
// worker's Context-owned buffers, behind the one before, and its size into
// rowNnz (zeroed by the caller). Row i keeps at most min(flopRow[i], nnz(mask
// row i)) entries but needs its whole mask row's slots while it accumulates.
func maskedRows[V semiring.Value, R semiring.Ring[V]](ring R, c *ContextG[V], w int, a, b, mask *matrix.CSRG[V], flopRow []int64, lo, hi int, flop int64, sort bool, rowNnz []int64) {
	var kept, need, widest int64
	for i := lo; i < hi; i++ {
		if m := mask.RowPtr[i+1] - mask.RowPtr[i]; flopRow[i] != 0 {
			need, widest = max(need, kept+m), max(widest, m)
			kept += min(flopRow[i], m)
		}
	}
	cols := c.workerScratch(w).EnsureInt32A(int(need))
	vals := c.valScratch(w, int(need))
	// The index goes by rowCounter's rule, for its reason, and nowhere else:
	// the O(Cols) array only where the worker's flop pays for it.
	var dense []int32
	var table *accum.HashTableG[int32]
	if int64(b.Cols) <= flop {
		c.maskDense[w] = growTo(c.maskDense[w], b.Cols)
		dense = c.maskDense[w]
	} else {
		table = reviveTable(&c.maskHash[w], widest)
	}
	pos := 0
	for i := lo; i < hi; i++ {
		if mcols := mask.ColIdx[mask.RowPtr[i]:mask.RowPtr[i+1]]; flopRow[i] != 0 && len(mcols) != 0 {
			n := maskedRow(ring, dense, table, a, b, mcols, i, cols[pos:], vals[pos:], sort)
			rowNnz[i] = int64(n)
			pos += n
		}
	}
}
