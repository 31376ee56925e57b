package spgemm

import (
	"math"
	"unsafe"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// The shard abstraction: AlgSharded decomposes a product into row stripes of
// A (matrix.RowStripe geometry), runs each stripe through the symbolic →
// numeric → merge stages of a ShardUnit, and lands the finished stripes in a
// ShardSink. The driver is written against these small interfaces so shards
// are process-local goroutines today but could execute in other processes or
// spill to disk without touching the kernels — the SpillSink in spill.go is
// the shipped second sink, bounding peak resident output memory by writing
// finished stripes to a temp-file-backed CSR.

// ShardUnit is one stripe's slice of the two-phase pipeline. Units are
// executed by pool workers: Symbolic and Numeric receive the worker slot w
// whose per-worker Context scratch (hash tables) they may use, and different
// units run concurrently, so a unit must only write its own stripe's rows.
type ShardUnit[V semiring.Value] interface {
	// Symbolic computes the stripe's per-row output sizes into rowNnz
	// (indexed by global row).
	Symbolic(w int, rowNnz []int64)
	// Numeric fills the stripe's entries into cols/vals — the sink-provided
	// window covering exactly this stripe's slots, so index 0 is the
	// stripe's first entry. rowPtr is the global output row-pointer array.
	// When ws is non-nil the unit accumulates (+=) its counters into it;
	// several units may run on one worker slot.
	Numeric(w int, rowPtr []int64, cols []int32, vals []V, ws *WorkerStats)
	// Merge commits the finished stripe to the sink.
	Merge(sink ShardSink[V]) error
}

// ShardSource enumerates the shards of one product in ascending row order.
type ShardSource[V semiring.Value] interface {
	// Shards returns the number of stripes.
	Shards() int
	// Rows returns stripe s's global row range [lo, hi).
	Rows(s int) (lo, hi int)
	// Unit returns the executable unit of stripe s.
	Unit(s int) ShardUnit[V]
}

// ShardSink receives finished stripes and assembles the product. The call
// protocol per multiply is: one Bind, then for every stripe one Stripe —
// which may block to bound resident memory — followed by writes into the
// returned window and one Commit, from pool workers concurrently; finally
// one Assemble from the driver after every stripe committed. Stripe windows
// for distinct s never overlap, so no synchronization covers the writes
// themselves.
type ShardSink[V semiring.Value] interface {
	// Bind fixes the output geometry. rowPtr is the final global row
	// pointer array (length rows+1); the sink may retain it.
	Bind(rows, cols int, rowPtr []int64, sorted bool) error
	// Stripe returns the entry window for stripe s covering the global rows
	// [lo, hi): slices of length rowPtr[hi]-rowPtr[lo] the unit writes the
	// stripe's columns and values into. May block until resident space is
	// available.
	Stripe(s, lo, hi int) (cols []int32, vals []V, err error)
	// Commit marks stripe s's window fully written. After Commit the window
	// must no longer be touched (an out-of-core sink reuses its buffers).
	Commit(s int) error
	// Assemble returns the finished product once every stripe committed.
	Assemble() (*matrix.CSRG[V], error)
}

// memShardSink is the default in-RAM sink: Bind allocates the output shell
// once and Stripe hands out subslices of it, so the merge is zero-copy and
// Assemble is free. This path is what makes AlgSharded bit-identical to
// AlgHash: units write their rows at exactly the offsets the monolithic
// kernel would.
type memShardSink[V semiring.Value] struct {
	c *matrix.CSRG[V]
}

func (k *memShardSink[V]) Bind(rows, cols int, rowPtr []int64, sorted bool) error {
	k.c = outputShell[V](rows, cols, rowPtr, sorted)
	return nil
}

func (k *memShardSink[V]) Stripe(s, lo, hi int) ([]int32, []V, error) {
	e0, e1 := k.c.RowPtr[lo], k.c.RowPtr[hi]
	return k.c.ColIdx[e0:e1:e1], k.c.Val[e0:e1:e1], nil
}

func (k *memShardSink[V]) Commit(int) error { return nil }

func (k *memShardSink[V]) Assemble() (*matrix.CSRG[V], error) { return k.c, nil }

// defaultShardMemBudget is the resident-bytes target one stripe's output
// upper bound is sized against when Options.ShardMemBudget is zero.
const defaultShardMemBudget int64 = 256 << 20

// shardStripeCount picks the stripe count for AlgSharded: enough stripes
// that the flop upper bound on one stripe's output entries fits the resident
// budget, at least one stripe per worker, at most one per row.
//
// All arithmetic is int64 with explicit saturation: a scale-20+ G500 product
// has flop totals past 2^34, and multiplying by the ~12 bytes/entry cost
// must not wrap on any intermediate — this is the overflow-hardening the
// stripe cutter is regression-tested for with synthetic huge-dimension
// headers (TestShardStripeCountHugeDimensions).
func shardStripeCount(totalFlop int64, rows, workers, elemBytes int, budget int64) int {
	if rows < 1 {
		return 1
	}
	if budget <= 0 {
		budget = defaultShardMemBudget
	}
	per := int64(4 + elemBytes) // int32 column index + one value
	if totalFlop < 0 {
		totalFlop = 0
	}
	est := totalFlop
	if est > math.MaxInt64/per {
		est = math.MaxInt64
	} else {
		est *= per
	}
	n := est / budget
	if est%budget != 0 {
		n++
	}
	floor := int64(workers)
	if floor > int64(rows) {
		floor = int64(rows)
	}
	if floor < 1 {
		floor = 1
	}
	if n < floor {
		n = floor
	}
	if n > int64(rows) {
		n = int64(rows)
	}
	return int(n)
}

// shardGeometry is the stripe plan of one sharded multiply: the
// flop-balanced row offsets, each stripe's accumulator bound, and which
// stripes sweep B by column blocks because that bound overflows the cache
// tier the installed memmodel parameters describe.
type shardGeometry struct {
	offsets   []int   // nStripes+1 row offsets (may alias Context buffers)
	bound     []int64 // per-stripe capBound(max row flop, cols)
	wide      []bool  // per-stripe column-split flag
	blockCols int     // column-block width for wide stripes
	anyWide   bool
}

// shardPlanGeometry cuts A into flop-balanced row stripes and classifies
// each against the tile geometry (TileCols/TileHeavyFlop overrides win,
// otherwise the analytic memmodel width — the same knobs AlgTiled uses, so
// tests can force the column-split path at toy scale). The returned slices
// alias the Context's reusable buffers; inspection.clone copies them for Plans.
func (o *OptionsG[V]) shardPlanGeometry(ctx *ContextG[V], flopRow []int64, rows, cols, workers int) shardGeometry {
	nStripes := o.ShardStripes
	if nStripes <= 0 {
		var zero V
		var totalFlop int64
		for _, f := range flopRow {
			totalFlop += f
		}
		nStripes = shardStripeCount(totalFlop, rows, workers, int(unsafe.Sizeof(zero)), o.ShardMemBudget)
	}
	if nStripes > rows && rows > 0 {
		nStripes = rows
	}
	if nStripes < 1 {
		nStripes = 1
	}
	g := shardGeometry{offsets: ctx.partition(flopRow, nStripes, workers)}
	g.bound, g.wide = ctx.stripeBufs(nStripes)
	blockCols, heavyFlop := o.tileGeometry()
	g.blockCols = blockCols
	for s := 0; s < nStripes; s++ {
		lo, hi := g.offsets[s], g.offsets[s+1]
		var max int64
		for i := lo; i < hi; i++ {
			if flopRow[i] > max {
				max = flopRow[i]
			}
		}
		g.bound[s] = capBound(max, cols)
		g.wide[s] = cols > blockCols && g.bound[s] > heavyFlop
		g.anyWide = g.anyWide || g.wide[s]
	}
	return g
}
