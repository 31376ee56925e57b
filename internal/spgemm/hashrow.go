package spgemm

import (
	"math"
	"math/bits"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// The whole-row hash kernel, written once. Hash in any stripe count, every
// Plan build and replay of it, a Heap Plan's symbolic phase, and the
// recipe's compression-ratio sample all run the row functions below,
// which take five decisions, one sampled, from numbers the phases compute:
//
//   - Both phases pick their accumulator by one rule (denseRule): where B's
//     column space is no larger than the flop of the rows a worker serves
//     (Cols <= flop/W), symbolic counts a row's distinct columns with the
//     generation stamps of a dense SPA over that space and numeric folds its
//     products into the same SPA (one direct index per product); otherwise
//     both keep Figure 7's hash table. The rule needs no constant: under it
//     an O(Cols) array is never larger than the work it replaces, so even a
//     one-shot call's zeroing is paid for, while hypersparse products —
//     where a per-thread O(Cols) array is the paper's Section 4.2.3
//     objection to SPA — keep the table.
//   - Numeric writes a row whose symbolic size equals its flop, when the
//     caller wants unsorted output, as the concatenation of the scaled B
//     rows: no two products share a column, so an accumulator would only hand
//     every product a fresh slot and copy it back in insertion order, which
//     is product order. The output is bit-identical to Upsert +
//     ExtractUnsorted. Rows with a repeated column and every sorted request
//     go to the accumulator the rule picked; SPA and table both list a row's
//     columns in first-touch order and fold in product order, so which one
//     ran never shows in the output.
//   - Where Figure 7's bound min(flop, Cols) is at most 1 it is a row's size
//     — one product, or one column all its products land on — so symbolic
//     writes it without counting; and numeric writes a row of one entry with
//     neither accumulator (oneEntryRow): the first product in its slot, the
//     rest folded onto it in product order, as either accumulator would.
//   - On the plus-times rings a sorted SPA row whose occupancy bitmap is no
//     wider than the row — ⌈Cols/64⌉ words for its n entries, symbolic's
//     exact count, the ranker's dense-window rule (§11 of DESIGN.md) — keeps
//     its occupancy in that bitmap (ptBodies.spaRow): each product sets a bit
//     and adds onto its slot, which holds -0 (0 for int64) between rows, and
//     the bitmap's walk lists the row sorted, so the row has no stamp test,
//     no column list and no sort. The first product lands on -0 as Upsert's
//     store leaves it and the rest fold in product order, so the output is
//     the stamped row's bit for bit. Unsorted rows, narrower ones, seeded
//     one-pass rows and every dictionary ring keep the stamps.
//   - On the SPA side a two-phase call builds B's word masks where a sample
//     says they beat the stamps (wordMasks): symbolic ORs a row's runs into
//     the SPA's bitmap and popcounts it (countWords), numeric's bitmap rows
//     set bits a run at a time. No call reuses another's; Plans fold per product.
//
// The one-phase geometry's other two row functions (heap.go) are here too.
// A row of masked row sums (MaskedRowSums, AlgHash only) runs neither of the
// above: its mask row bounds row i of (A·B).*M — maskedRow, one index lookup
// per product, no accumulator table, no symbolic pass, B streamed once.
// On the one-pass route (driver.go) numeric decides without symbolic's count:
// onePassRow stamps and copies, and on the first column its stamps see twice
// — the rows numeric would fold — goes on in the SPA from there, seeded with
// what it wrote, so B is streamed once.

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

// denseRule is the one rule that puts an O(Cols) array in a worker's hands:
// B's column space is no larger than the flop of the rows the array serves.
// Symbolic counting (rowCounter), the numeric accumulator (newHashNumeric), a
// masked row's col→slot index (onePhaseExecute) and the one-pass route (inspect)
// all ask it, and nothing else compares a column count with a flop.
func denseRule(cols int, flop int64) bool { return int64(cols) <= flop }

// wordMasks is B's pattern as runs, stretches of a B row in one 64-column
// word: word[r] = col>>6, their bits in bits[r], row k's at B's own offsets
// [RowPtr[k], RowPtr[k]+runs[k]) (an unsorted row may meet a word again). A
// G500 s11 ef16 square has 5.2 products per run, flop weighted.
type wordMasks struct {
	word []int32
	bits []uint64
	runs []int32
}

// or sets in occ the columns of B row k, whose entries start at lo.
//
//spgemm:hotpath
func (m *wordMasks) or(occ []uint64, lo int64, k int32) {
	hi := lo + int64(m.runs[k])
	word, bits := m.word[lo:hi], m.bits[lo:hi]
	for r, w := range word {
		occ[w] |= bits[r]
	}
}

// wordMasks builds B's masks in c's buffers for a product on the SPA side, or
// returns nil where they would not do less work than the stamps: a row whose
// flop reaches the bitmap's ⌈Cols/64⌉ words costs the words plus an OR per
// run, which costs about two stamps (BenchmarkSymbolic), against a stamp per
// product, and the build reads B once. Runs per product are sampled on the B
// rows of recipeSampleRows evenly spaced entries of A, weighting each by use.
func (c *ContextG[V]) wordMasks(a, b *matrix.CSRG[V], in *inspection[V]) *wordMasks {
	if !in.dense {
		return nil
	}
	var runs, prods int64
	for p, nnz := int64(0), int64(len(a.ColIdx)); p < nnz; p += max(1, nnz/recipeSampleRows) {
		bcols := b.ColIdx[b.RowPtr[a.ColIdx[p]]:b.RowPtr[a.ColIdx[p]+1]]
		for x, col := range bcols {
			if x == 0 || col>>6 != bcols[x-1]>>6 {
				runs++
			}
		}
		prods += int64(len(bcols))
	}
	words, cost, flop := int64(b.Cols+63)>>6, float64(len(b.ColIdx)), int64(0)
	for _, f := range in.flopRow {
		if f >= max(words, 2) && b.Cols > 1 { // not a row symbolic sizes by its bound
			cost, flop = cost+float64(words), flop+f
		}
	}
	if runs == 0 || cost+2*float64(flop)*float64(runs)/float64(prods) >= float64(flop) {
		return nil
	}
	c.masks.build(b.RowPtr, b.ColIdx)
	return &c.masks
}

// build makes m the masks of the pattern rowPtr/colIdx, in m's own buffers.
func (m *wordMasks) build(rowPtr []int64, colIdx []int32) {
	word, bits, runs := tempBuf(&m.word, int64(len(colIdx))), tempBuf(&m.bits, int64(len(colIdx))), tempBuf(&m.runs, int64(len(rowPtr)-1))
	for k := range runs { // each entry rewrites its run's slot; a new word moves on one, without a branch
		lo, hi := rowPtr[k], rowPtr[k+1]
		rword, rbits, r, prev, cur := word[lo:hi], bits[lo:hi], -1, int32(-1), uint64(0)
		for _, col := range colIdx[lo:hi] {
			d := col>>6 - prev // non-zero at a new word, where d|-d is negative
			fresh := int(uint32(d|-d) >> 31)
			r, prev = r+fresh, col>>6
			cur = cur&(uint64(fresh)-1) | 1<<(col&63)
			rword[r], rbits[r] = prev, cur
		}
		runs[k] = int32(r + 1)
	}
}

// rowCounter is one worker's symbolic accumulator: stamps — its SPA's, which
// numeric folds into next, with the SPA's bitmap beside them where B's masks
// count (countWords) — or a hash table, never both.
type rowCounter[V semiring.Value] struct {
	stamps *accum.StampSet
	table  *accum.HashTableG[V]
	masks  *wordMasks
	occ    []uint64
}

// rowCounter picks worker w's symbolic accumulator for rows none of which
// carries more than bound products (already capped at cols): the SPA where
// dense (denseRule), with masks when non-nil, else the table.
func (c *ContextG[V]) rowCounter(w, cols int, dense bool, bound int64, masks *wordMasks) rowCounter[V] {
	if !dense {
		return rowCounter[V]{table: c.hashTable(w, bound)}
	}
	spa := c.spaTable(w, cols)
	rc := rowCounter[V]{stamps: spa.Marks(), masks: masks}
	if masks != nil {
		_, rc.occ = spa.Bitmap(cols)
	}
	return rc
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

// countWords is count on B's word masks, for a row whose flop reaches the
// bitmap's words: it ORs in each run, then popcounts and clears each word.
//
//spgemm:hotpath
func (rc *rowCounter[V]) countWords(a *matrix.CSRG[V], bRowPtr []int64, i int) int64 {
	occ, arp := rc.occ, a.RowPtr[i:i+2]
	for _, k := range a.ColIdx[arp[0]:arp[1]] {
		rc.masks.or(occ, bRowPtr[k], k)
	}
	n := 0
	for w, x := range occ {
		n += bits.OnesCount64(x)
		occ[w] = 0
	}
	return int64(n)
}

// hashSymbolic is worker w's symbolic pass: the output size of every row of
// [lo, hi) with a non-zero weight goes to rowNnz (the rest stay as the
// caller zeroed them). ws may be nil.
func (c *ContextG[V]) hashSymbolic(w int, a, b *matrix.CSRG[V], in *inspection[V], lo, hi int, rowNnz []int64, ws *WorkerStats) {
	flop, max := rangeFlopMax(in.flopRow, lo, hi)
	if flop == 0 {
		return
	}
	rc := c.rowCounter(w, b.Cols, in.dense, capBound(max, b.Cols), in.masks)
	counted := flop
	for i := lo; i < hi; i++ {
		if f := in.flopRow[i]; f != 0 {
			// Figure 7's bound min(flop, Cols) is the size itself where it is
			// at most 1: one product, or one column every product lands on.
			if n := capBound(f, b.Cols); n <= 1 {
				rowNnz[i], counted = n, counted-f
			} else if rc.occ != nil && int64(len(rc.occ)) <= f {
				rowNnz[i] = rc.countWords(a, b.RowPtr, i)
			} else {
				rowNnz[i] = rc.count(a, b, i)
			}
		}
	}
	if ws != nil {
		if rc.stamps != nil {
			ws.StampMarks += counted
		} else {
			ws.HashLookups += rc.table.Lookups()
			ws.HashProbes += rc.table.Probes()
		}
	}
}

// hashNumeric is one worker's numeric state: the operands and B's masks, the
// accumulator — the SPA or the table, never both —, the output window its
// rows land in and the row bodies its ring folds with (bodiesFor).
type hashNumeric[V semiring.Value, R semiring.Ring[V]] struct {
	ring   R
	body   rowBodies[V, R]
	spa    *accum.SPAG[V]
	table  *accum.HashTableG[V]
	masks  *wordMasks
	a, b   *matrix.CSRG[V]
	cols   []int32
	vals   []V
	sorted bool
	direct int64 // flop written without an accumulator
	dense  int64 // flop folded into the SPA
}

// newHashNumeric readies worker w's numeric pass over rows none of which
// carries more than bound products (already capped at B's columns): where
// dense (denseRule) the worker's SPA, with B's masks if any, else its table —
// the side rowCounter took for the same rows. bind gives it its window.
func newHashNumeric[V semiring.Value, R semiring.Ring[V]](ring R, ctx *ContextG[V], w int, a, b *matrix.CSRG[V], dense bool, masks *wordMasks, bound int64, sorted bool) hashNumeric[V, R] {
	h := hashNumeric[V, R]{ring: ring, body: bodiesFor[V](ring), masks: masks, a: a, b: b, sorted: sorted}
	if dense {
		h.spa = ctx.spaTable(w, b.Cols)
	} else {
		h.table = ctx.hashTable(w, bound)
	}
	return h
}

// bind points the pass at the output window cols/vals.
func (h *hashNumeric[V, R]) bind(cols []int32, vals []V) { h.cols, h.vals = cols, vals }

// row writes the n entries of row i of A·B at offset start of the window.
// This is the only place the concatenate/accumulate choice is made.
//
//spgemm:hotpath
func (h *hashNumeric[V, R]) row(i int, start, n, flop int64) {
	cols, vals := h.cols[start:start+n], h.vals[start:start+n]
	if n == 1 { // every product lands in the one slot: no accumulator
		h.direct += flop
		cols[0], vals[0] = oneEntryRow(h.ring, h.a, h.b, i)
		return
	}
	direct := !h.sorted && n == flop
	dense := !direct && h.spa != nil
	if direct {
		h.direct += flop
	} else if dense {
		h.dense += flop
	}
	if dense {
		h.body.spaRow(h.ring, h.spa, h.masks, h.a, h.b, i, 0, 0, cols, vals, h.sorted)
	} else {
		h.body.hashRow(h.ring, h.table, h.a, h.b, i, cols, vals, direct, h.sorted)
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
	if ws == nil {
		return
	}
	ws.DirectFlop += h.direct
	ws.DenseFlop += h.dense
	if h.table != nil {
		ws.HashLookups += h.table.Lookups()
		ws.HashProbes += h.table.Probes()
	}
}

// rowBodies are the whole-row bodies of one ring, one per row shape: hashRow
// through the table (or by concatenation), spaRow in the dense SPA,
// onePassRow on the one-pass route and maskedRow under a mask row. Each has
// two implementations that fold in the same order: ringBodies with the
// ring's Add and Mul, ptBodies (ringfast.go) in Go's * and +.
type rowBodies[V semiring.Value, R semiring.Ring[V]] interface {
	hashRow(ring R, table *accum.HashTableG[V], a, b *matrix.CSRG[V], i int, cols []int32, vals []V, direct, sorted bool)
	spaRow(ring R, spa *accum.SPAG[V], masks *wordMasks, a, b *matrix.CSRG[V], i, from, seeded int, cols []int32, vals []V, sorted bool) int
	onePassRow(ring R, spa *accum.SPAG[V], a, b *matrix.CSRG[V], i int, cols []int32, vals []V) (n, marks int)
	maskedRow(ring R, dense []int32, table *accum.HashTableG[int32], a, b *matrix.CSRG[V], mcols []int32, i int, cols []int32, vals []V, sort bool) int
}

// ringBodies are the rowBodies of any ring, through its Add and Mul.
type ringBodies[V semiring.Value, R semiring.Ring[V]] struct{}

// bodiesFor is the one selection of a ring's row bodies: ptBodies for the
// three plus-times rings, ringBodies for every other. It runs once per
// window, outside the row loops; both are zero-size, so the interface holds
// no allocation.
func bodiesFor[V semiring.Value, R semiring.Ring[V]](ring R) rowBodies[V, R] {
	var body any = ringBodies[V, R]{}
	switch any(ring).(type) {
	case semiring.PlusTimesF64:
		body = ptBodies[float64, semiring.PlusTimesF64]{}
	case semiring.PlusTimesF32:
		body = ptBodies[float32, semiring.PlusTimesF32]{}
	case semiring.PlusTimesI64:
		body = ptBodies[int64, semiring.PlusTimesI64]{}
	}
	return body.(rowBodies[V, R])
}

// hashRow computes row i of A·B into cols/vals, which are exactly the
// row's size: by concatenation when direct, else through table with sorted
// or insertion-order extraction.
//
//spgemm:hotpath
func (ringBodies[V, R]) hashRow(ring R, table *accum.HashTableG[V], a, b *matrix.CSRG[V], i int, cols []int32, vals []V, direct, sorted bool) {
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

// oneEntryRow returns the one entry of row i of A·B, a row symbolic sized 1:
// every product lands on one column, so the first product is the entry and
// the rest fold into it with ring.Add in product order — what the SPA and the
// table leave in their one slot, with neither touched.
//
//spgemm:hotpath
func oneEntryRow[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], i int) (col int32, val V) {
	arp := a.RowPtr[i : i+2]
	acols := a.ColIdx[arp[0]:arp[1]]
	avals := a.Val[arp[0]:arp[1]]
	first := true
	for x, k := range acols {
		brp := b.RowPtr[k : int(k)+2]
		for p := brp[0]; p < brp[1]; p++ {
			if prod := ring.Mul(avals[x], b.Val[p]); first {
				col, val, first = b.ColIdx[p], prod, false
			} else {
				val = ring.Add(val, prod)
			}
		}
	}
	return col, val
}

// spaRow is hashRow's accumulating half on the dense SPA, in a Row loop: the
// first product of a column is stored and listed in cols, later ones folded
// with ring.Add in product order, so the row lists its columns in first-touch
// order as the table's used list does and is bit-identical to the table's.
// The first seeded entries of cols/vals are the row's products through its B
// rows before from, written by concatenation (onePassRow; two-phase numeric
// passes 0 and 0): the SPA takes them as they stand and folds on from B row
// from. It returns the row's size. It has no bitmap row, so no use for masks.
//
//spgemm:hotpath
func (ringBodies[V, R]) spaRow(ring R, spa *accum.SPAG[V], _ *wordMasks, a, b *matrix.CSRG[V], i, from, seeded int, cols []int32, vals []V, sorted bool) int {
	arp := a.RowPtr[i : i+2]
	acols := a.ColIdx[arp[0]+int64(from) : arp[1]]
	avals := a.Val[arp[0]+int64(from) : arp[1]]
	dense, stamp, gen := spa.Row(cols[:seeded], vals)
	stamp = stamp[:len(dense)] // one check per product covers both
	n := seeded
	for x, k := range acols {
		av := avals[x]
		brp := b.RowPtr[k : int(k)+2]
		bvals := b.Val[brp[0]:brp[1]]
		for y, col := range b.ColIdx[brp[0]:brp[1]] {
			prod := ring.Mul(av, bvals[y])
			if stamp[col] != gen {
				stamp[col], dense[col], cols[n] = gen, prod, col
				n++
			} else {
				dense[col] = ring.Add(dense[col], prod)
			}
		}
	}
	spa.Gather(cols[:n], vals, sorted)
	return n
}

// onePassRow writes row i of A·B, unsorted, from the start of cols/vals
// (room for its flop): each B row's columns are stamped with the SPA's own
// stamps and copied, its values scaled behind them. On the first column
// already stamped the row goes on in the SPA from that B row, seeded with the
// entries already written, as two-phase numeric folds a row whose count fell
// short of its flop. It returns the row's size (the flop unless the SPA ran)
// and the products it tested.
//
//spgemm:hotpath
func (r ringBodies[V, R]) onePassRow(ring R, spa *accum.SPAG[V], a, b *matrix.CSRG[V], i int, cols []int32, vals []V) (n, marks int) {
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	acols := a.ColIdx[alo:ahi]
	avals := a.Val[alo:ahi]
	st := spa.Marks()
	st.Clear()
	for x, k := range acols {
		brp := b.RowPtr[k : int(k)+2]
		bcols := b.ColIdx[brp[0]:brp[1]]
		if c := st.CopyNew(cols[n:], bcols); c < len(bcols) {
			return r.spaRow(ring, spa, nil, a, b, i, x, n, cols, vals, false), n + c + 1
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
	h := newHashNumeric(ring, ctx, 0, a, b, true, nil, capBound(max, b.Cols), false) // the SPA: the route is denseRule's
	h.bind(c.ColIdx, c.Val)
	rc := rowCounter[V]{stamps: h.spa.Marks()}
	var pos, marks int64
	rest := flop
	for i, f := range flopRow {
		c.RowPtr[i] = pos
		rest -= f
		var n, m int
		booked := false // by h.row; onePassRow's rows are booked below
		switch room := int64(min(len(c.ColIdx), len(c.Val))); {
		case f == 0:
		case pos+f <= room:
			n, m = h.body.onePassRow(ring, h.spa, a, b, i, c.ColIdx[pos:], c.Val[pos:])
		default:
			n, m = int(rc.count(a, b, i)), int(f)
			if pos+int64(n) > room {
				c.ColIdx = regrow(&ctx.outCols, c.ColIdx, pos, pos+int64(n)+rest)
				c.Val = regrow(&ctx.outVals, c.Val, pos, pos+int64(n)+rest)
				h.bind(c.ColIdx, c.Val)
			}
			h.row(i, pos, int64(n), f)
			booked = true
		}
		if !booked { // onePassRow concatenated the row, or resumed it in the SPA
			if int64(n) == f {
				h.direct += f
			} else {
				h.dense += f
			}
		}
		pos, marks = pos+int64(n), marks+int64(m)
	}
	c.RowPtr[a.Rows] = pos
	c.ColIdx, c.Val = c.ColIdx[:pos], c.Val[:pos]
	if ws != nil {
		ws.Rows, ws.Flop, ws.StampMarks = int64(a.Rows), flop, marks
	}
	h.report(ws)
}

// maskedRow computes row i of (A·B).*M, mcols being row i of M, in a window
// of len(mcols)+1 slots (maskLoad) and returns the size maskCompact leaves. A
// miss is dropped; a hit's product is stored on its slot's first touch and
// folded with ring.Add after, in product order, which is hashRow's. A sorted
// B row stops past the mask row's largest column.
//
//spgemm:hotpath
func (ringBodies[V, R]) maskedRow(ring R, dense []int32, table *accum.HashTableG[int32], a, b *matrix.CSRG[V], mcols []int32, i int, cols []int32, vals []V, sort bool) int {
	cols, vals = cols[:len(mcols)+1], vals[:len(mcols)+1]
	hi := maskLoad(dense, table, mcols, cols, b.Sorted)
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	acols, avals := a.ColIdx[alo:ahi], a.Val[alo:ahi]
	for x, k := range acols {
		av := avals[x]
		brp := b.RowPtr[k : int(k)+2]
		bvals := b.Val[brp[0]:brp[1]]
		for y, col := range b.ColIdx[brp[0]:brp[1]] {
			if col > hi { // a sorted B row has nothing left the mask row holds
				break
			}
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
			if cols[e] < 0 {
				cols[e], vals[e] = col, prod
			} else {
				vals[e] = ring.Add(vals[e], prod)
			}
		}
	}
	return maskCompact(dense, mcols, cols, vals, sort)
}

// maskLoad points the index (dense over B's columns and zero between rows, or
// table) at mask row mcols: mcols[s] to slot s+1 of the window, marked
// untouched, so 0 is absent and the trash slot. It returns a sorted B's cut.
//
//spgemm:hotpath
func maskLoad(dense []int32, table *accum.HashTableG[int32], mcols, cols []int32, sorted bool) int32 {
	if table != nil {
		table.Reset()
	}
	hi := int32(-1)
	for s, col := range mcols {
		cols[s+1] = -1
		hi = max(hi, col)
		if dense != nil {
			dense[col] = int32(s) + 1
		} else {
			slot, _ := table.Upsert(col)
			*slot = int32(s) + 1
		}
	}
	if !sorted {
		hi = math.MaxInt32
	}
	return hi
}

// maskCompact moves the touched slots 1… to the window's start in place — an
// entry exists iff a product landed on it, and the row ascends if the mask row
// does (sort is set when it must and the mask row may not) — unloads the
// dense index and returns the row's size.
//
//spgemm:hotpath
func maskCompact[V semiring.Value](dense []int32, mcols, cols []int32, vals []V, sort bool) int {
	vals = vals[:len(cols)]
	n := 0
	for s := 1; s < len(cols); s++ {
		if col := cols[s]; col >= 0 {
			cols[n], vals[n] = col, vals[s]
			n++
		}
	}
	if dense != nil {
		for _, col := range mcols {
			dense[col] = 0
		}
	}
	if sort {
		accum.SortPairs(cols[:n], vals[:n])
	}
	return n
}

// maskWidest is the widest mask row among the rows of [lo, hi) with a
// non-zero weight: the most slots any of them indexes.
func maskWidest[V semiring.Value](mask *matrix.CSRG[V], flopRow []int64, lo, hi int) int64 {
	var widest int64
	for i := lo; i < hi; i++ {
		if flopRow[i] != 0 {
			widest = max(widest, mask.RowPtr[i+1]-mask.RowPtr[i])
		}
	}
	return widest
}

// maskedRows is worker w's pass over the rows of [lo, hi), a stripe of
// masked row sums: each row goes through maskedRow, on the dense index or the
// worker's table, into the head of the worker's window cols/vals (its mask
// row and one slot more), sorted when the mask row may not ascend, and leaves
// only its fold in sums[i].
func maskedRows[V semiring.Value, R semiring.Ring[V]](ring R, c *ContextG[V], w int, a, b, mask *matrix.CSRG[V], flopRow []int64, lo, hi int, dense bool, cols []int32, vals []V, sums []V) {
	var index []int32
	var table *accum.HashTableG[int32]
	if dense {
		c.maskDense[w] = growTo(c.maskDense[w], b.Cols)
		index = c.maskDense[w]
	} else {
		table = reviveTable(&c.maskHash[w], maskWidest(mask, flopRow, lo, hi))
	}
	body := bodiesFor[V](ring)
	for i := lo; i < hi; i++ {
		n := 0
		if mcols := mask.ColIdx[mask.RowPtr[i]:mask.RowPtr[i+1]]; flopRow[i] != 0 && len(mcols) != 0 {
			n = body.maskedRow(ring, index, table, a, b, mcols, i, cols, vals, !mask.Sorted)
		}
		s := ring.Zero()
		for _, v := range vals[:n] {
			s = ring.Add(s, v)
		}
		sums[i] = s
	}
}
