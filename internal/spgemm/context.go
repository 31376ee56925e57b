package spgemm

import (
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// ContextG is the reusable execution state of the SpGEMM kernels: the
// per-worker accumulators (hash tables, merge heaps, dense SPAs), the temp
// buffers of the one-phase kernels, and the per-row bookkeeping arrays (flop
// counts, row sizes, partition offsets, prefix-sum scratch). All of it grows
// monotonically and is reused across Multiply calls, so iterative workloads —
// MCL's repeated M·M, multi-source BFS frontiers, betweenness — pay the
// paper's Section 3.2 memory-management bill once instead of every call.
// After warm-up, a hash SpGEMM through a Context allocates only the output
// matrix — and not even that once the caller hands finished products back
// through Recycle. The price is what the Context retains: besides tables sized
// by the widest row, up to 12·Cols bytes per worker where Cols <= flop
// (denseRule) — its SPA, 4·Cols of stamps that symbolic counts with too plus
// 8·Cols of values for V = float64 —, 12·nnz(B) + 4·Rows(B) bytes of B's word
// masks where a product built them, and the arrays of at most one donated
// product.
//
// A Context is specific to one value type V: its accumulators and value
// scratch hold V entries. The ring used for a given call is independent —
// the same ContextG[float64] serves plus-times, min-plus and max-times
// products alike, because the accumulators store values without ever
// interpreting them (the driver applies the ring to Upsert slots).
//
// Usage: create one Context, point Options.Context at it, and call Multiply
// in a loop. A nil Options.Context preserves the one-shot behavior (every
// call allocates fresh state, exactly as before Contexts existed).
//
// A Context is NOT safe for concurrent use: concurrent Multiply calls must
// use distinct Contexts (or nil). Its parallel regions run on the
// process-wide worker pool (sched.Default), which every Context shares.
type ContextG[V semiring.Value] struct {
	// Per-worker accumulator state, grown on demand.
	hash      []*accum.HashTableG[V]
	maskDense [][]int32                  // masked row sums' col→slot index
	maskHash  []*accum.HashTableG[int32] // (maskedRow), dense or hashed
	heaps     []*accum.MergeHeapG[V]
	spa       []*accum.SPAG[V]
	masks     wordMasks // B's, rebuilt by each call that uses them

	// The replay map's column -> rank array (newReplayMap), grown through
	// mempool.Grow so LiveBytes counts it.
	rank []int32

	// The one-phase geometry's temp buffers and its stripes' windows in them
	// (onePhaseExecute), grown monotonically like everything else here.
	tmpCols []int32
	tmpVals []V
	windows []int64

	// Per-row bookkeeping, grown on demand.
	flopRow []int64
	rowNnz  []int64
	offsets []int
	ps      []int64

	// The arrays of the largest product donated through Recycle that no
	// multiply has taken yet, one slot per array of a CSR (see drawOutput).
	outRowPtr []int64
	outCols   []int32
	outVals   []V

	// stripeNext is the first stripe no worker of the running parallel
	// region has started (see runWorkers).
	stripeNext atomic.Int64

	// The running call's inspection and phase timer (driver.go): fields, so
	// a steady-state call allocates neither. They keep that call's mask and
	// Stats reachable until the next call overwrites them.
	in inspection[V]
	pt phaseTimer
}

// Context is the float64 instantiation — the type existing callers hold.
type Context = ContextG[float64]

// NewContext returns an empty float64 Context. Buffers are sized on first
// use and grow monotonically afterwards.
func NewContext() *Context { return &Context{} }

// NewContextG returns an empty Context over V.
func NewContextG[V semiring.Value]() *ContextG[V] { return &ContextG[V]{} }

// ctx returns the reusable context for this call: the caller's when set, or
// a fresh transient one, which makes every ensure-method allocate — byte-for-
// byte the pre-Context one-shot behavior.
func (o *OptionsG[V]) ctx() *ContextG[V] {
	if o.Context != nil {
		return o.Context
	}
	return &ContextG[V]{}
}

// runWorkers runs a parallel region of the running call on the process-wide
// pool. It deals the region's stripes: worker w runs stripe w first, without
// asking, so the stripes left to claim through nextStripe start at workers.
// It is the one place WorkerStats.Busy is stamped; a call without stats reads
// no clock and wraps nothing.
func (c *ContextG[V]) runWorkers(workers int, body func(worker int)) {
	c.stripeNext.Store(int64(workers))
	if st := c.pt.st; st != nil {
		inner := body
		body = func(w int) {
			start := time.Now()
			inner(w)
			st.Workers[w].Busy += time.Since(start)
		}
	}
	sched.RunWorkers(workers, body)
}

// nextStripe claims the next stripe nobody has started; the caller checks it
// against the stripe count.
func (c *ContextG[V]) nextStripe() int { return int(c.stripeNext.Add(1)) - 1 }

// Recycle donates m, a product the caller is finished with, to c: its arrays
// become the storage of the next product of c that fits in them. Every product
// Multiply, MultiplyRing or a Plan returns is the caller's for as long as it
// likes; Recycle is how it gives one back. Two kinds of matrix must never be
// donated: a product assembled by a SpillSink (it aliases a file mapping that
// Close unmaps), and one anything else still reads — a later multiply
// overwrites the arrays. m is left without arrays, so a use after the
// donation fails on its first index rather than reading another product. c
// keeps, per array, the larger of what it held and what m brought; a nil m or
// one with no entries changes nothing worth keeping.
func (c *ContextG[V]) Recycle(m *matrix.CSRG[V]) {
	if m == nil {
		return
	}
	if cap(m.RowPtr) > cap(c.outRowPtr) {
		c.outRowPtr = m.RowPtr
	}
	if cap(m.ColIdx) > cap(c.outCols) {
		c.outCols = m.ColIdx
	}
	if cap(m.Val) > cap(c.outVals) {
		c.outVals = m.Val
	}
	m.RowPtr, m.ColIdx, m.Val = nil, nil, nil
}

// drawOutput returns an output array of n entries, contents undefined: the
// donated one in *slot when it is large enough, which empties the slot — the
// array now belongs to the product being built — and a fresh one otherwise.
func drawOutput[T any](slot *[]T, n int64) []T {
	var elem T
	bytes := n * int64(unsafe.Sizeof(elem))
	if s := *slot; n > 0 && int64(cap(s)) >= n {
		*slot = nil
		mOutputReused.Inc()
		mOutputReusedBytes.Add(bytes)
		return s[:n]
	}
	mOutputAllocated.Inc()
	mOutputAllocatedBytes.Add(bytes)
	return make([]T, n)
}

// drawUpTo is drawOutput for a product that learns its size as it writes, n
// at most: it takes a donation of any size and outgrows a short one (regrow).
func drawUpTo[T any](slot *[]T, n int64) []T {
	if have := int64(cap(*slot)); have > 0 {
		n = min(n, have)
	}
	return drawOutput(slot, n)
}

// regrow returns s if it holds n entries, else a fresh array of n holding
// s[:keep], and hands s, a donation drawUpTo emptied slot of, back to slot.
func regrow[T any](slot *[]T, s []T, keep, n int64) []T {
	if int64(len(s)) >= n {
		return s
	}
	grown := drawOutput(slot, n)
	copy(grown, s[:keep])
	*slot = s
	return grown
}

// rowPtrBuf returns the row-pointer array of a product with the given number
// of rows (contents undefined), the product's own from here on.
func (c *ContextG[V]) rowPtrBuf(rows int) []int64 {
	return drawOutput(&c.outRowPtr, int64(rows)+1)
}

// outputShell binds the column/value arrays of the result once the row
// pointer array is final. The arrays may be recycled ones: every kernel
// writes every entry of every row it sizes.
func (c *ContextG[V]) outputShell(rows, cols int, rowPtr []int64, sorted bool) *matrix.CSRG[V] {
	nnz := rowPtr[rows]
	return &matrix.CSRG[V]{
		Rows:   rows,
		Cols:   cols,
		RowPtr: rowPtr,
		ColIdx: drawOutput(&c.outCols, nnz),
		Val:    drawOutput(&c.outVals, nnz),
		Sorted: sorted,
	}
}

// perRowFlop computes the per-row flop counts into the context's reusable
// buffer (the FlopInto satellite of the allocate-once discipline). The total
// the pre-pass computes anyway feeds the spgemm_flop_total counter.
func (c *ContextG[V]) perRowFlop(a, b *matrix.CSRG[V]) []int64 {
	total, perRow := matrix.FlopInto(a, b, c.flopRow)
	mFlop.Add(total)
	c.flopRow = perRow
	return perRow
}

// partition computes the flop-balanced row partition (Figure 6) into the
// context's reusable offsets and prefix-sum buffers.
func (c *ContextG[V]) partition(flopRow []int64, parts, workers int) []int {
	if n := len(flopRow); cap(c.ps) < n+1 {
		c.ps = make([]int64, n+1)
	}
	c.offsets = sched.BalancedPartitionInto(flopRow, parts, workers, c.offsets, c.ps)
	return c.offsets
}

// rowNnzBuf returns the per-row output-size array, zeroed, with length rows.
func (c *ContextG[V]) rowNnzBuf(rows int) []int64 {
	if cap(c.rowNnz) < rows {
		c.rowNnz = make([]int64, rows)
	}
	c.rowNnz = c.rowNnz[:rows]
	for i := range c.rowNnz {
		c.rowNnz[i] = 0
	}
	return c.rowNnz
}

// stripeWindows returns where each stripe of a one-phase product writes:
// stripe s into [win[s], win[s+1]). A replay's windows are its stripes' slices
// of the output; a one-shot product's cut one buffer by its stripes' flop.
// Row sums keep no row, so theirs are the workers', worker w's at win[w]: the
// widest mask row and the trash slot, reused row after row.
func (c *ContextG[V]) stripeWindows(in *inspection[V], rowPtr []int64, sums bool) []int64 {
	n, width := in.stripes(), int64(0)
	if sums {
		n, width = in.workers, maskWidest(in.mask, in.flopRow, 0, len(in.flopRow))+1
	}
	win := tempBuf(&c.windows, int64(n+1))
	win[0] = 0
	for s := range n {
		lo, hi := in.offsets[s], in.offsets[s+1]
		switch {
		case sums:
			win[s+1] = win[s] + width
		case rowPtr != nil:
			win[s+1] = rowPtr[hi]
		default:
			win[s+1] = win[s] + rangeFlop(in.flopRow, lo, hi)
		}
	}
	return win
}

// growTo returns s extended to at least n slots, keeping its contents.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	grown := make([]T, n)
	copy(grown, s)
	return grown
}

// ensureWorkers grows the per-worker accumulator slices to at least n slots.
func (c *ContextG[V]) ensureWorkers(n int) {
	c.hash = growTo(c.hash, n)
	c.maskDense = growTo(c.maskDense, n)
	c.maskHash = growTo(c.maskHash, n)
	c.heaps = growTo(c.heaps, n)
	c.spa = growTo(c.spa, n)
}

// hashTable returns worker w's hash table with capacity for bound entries:
// cached when large enough (reset), re-reserved when the bound grew,
// allocated on first use. ensureWorkers(>w) must have been called.
func (c *ContextG[V]) hashTable(w int, bound int64) *accum.HashTableG[V] {
	return reviveTable(&c.hash[w], bound)
}

// reviveTable is hashTable on any worker's table slot (masked row sums'
// index is a table over slots, not over V).
func reviveTable[T semiring.Value](slot **accum.HashTableG[T], bound int64) *accum.HashTableG[T] {
	t := *slot
	switch {
	case t == nil:
		mCtxAlloc.Inc()
		t = accum.NewHashTableG[T](bound)
		*slot = t
		return t
	case int64(t.Cap()) <= bound:
		mCtxReuse.Inc()
		t.Reserve(bound)
	default:
		mCtxReuse.Inc()
		t.Reset()
	}
	t.ResetCounters() // per-call ExecStats semantics, as with a fresh table
	return t
}

// mergeHeap returns worker w's merge heap, reset, with capacity for bound
// cursors. ensureWorkers(>w) must have been called.
func (c *ContextG[V]) mergeHeap(w int, bound int64) *accum.MergeHeapG[V] {
	h := c.heaps[w]
	if h == nil {
		mCtxAlloc.Inc()
		h = accum.NewMergeHeapG[V](bound)
		c.heaps[w] = h
	} else {
		mCtxReuse.Inc()
		h.Reset()
		h.ResetCounters()
	}
	return h
}

// tempBuf returns *s with length n (contents undefined), grown when short.
func tempBuf[T any](s *[]T, n int64) []T {
	if int64(cap(*s)) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// spaTable returns worker w's dense accumulator covering ncols columns,
// reset for a fresh row: cached when large enough, re-reserved when the
// column space grew, allocated on first use. ensureWorkers(>w) must have
// been called.
func (c *ContextG[V]) spaTable(w, ncols int) *accum.SPAG[V] {
	s := c.spa[w]
	if s == nil {
		mCtxAlloc.Inc()
		s = accum.NewSPAG[V](ncols)
		c.spa[w] = s
		return s
	}
	mCtxReuse.Inc()
	s.Reserve(ncols)
	s.Reset()
	return s
}
