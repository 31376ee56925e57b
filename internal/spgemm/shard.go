package spgemm

import (
	"math"
	"unsafe"
)

// AlgSharded: AlgHash cut into more stripes. Where Hash partitions the rows
// over exactly `workers` flop-balanced ranges (Figure 6 of the paper, via
// sched.BalancedPartition) and runs each start-to-finish on its worker,
// Sharded cuts the same partition finer — the row-stripe shape of
// distributed SpGEMM (Deveci et al., arXiv:1801.03065), sized so one stripe's
// output fits Options.ShardMemBudget (shardStripes) — lets the stripes flow
// through the pool one at a time, and can land each finished stripe in a
// SpillSink (spill.go) instead of holding the whole output. Both run the
// driver's one stripe loop (driver.go); this file only cuts the stripes and
// reports what the cut looked like.
//
// Identity guarantee: with sorted output, the product is bit-identical to
// AlgHash on the same inputs, whatever the stripe count and the sink. A row's
// products fold in A-row order through the same row function whichever stripe
// the row falls in, per-row extraction sorts canonically, and rows land at
// the offsets the one row-pointer array dictates. With unsorted output the
// entry *sets* match but the order within a row may differ — hash-table
// iteration order depends on table capacity, which is sized per stripe.

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

// shardStripes is AlgSharded's stripe count for a product with the given
// per-row flop: Options.ShardStripes when set, shardStripeCount otherwise,
// never more than one stripe per row.
func (o *OptionsG[V]) shardStripes(flopRow []int64, workers int) int {
	rows := len(flopRow)
	n := o.ShardStripes
	if n <= 0 {
		var zero V
		n = shardStripeCount(rangeFlop(flopRow, 0, rows), rows, workers, int(unsafe.Sizeof(zero)), o.ShardMemBudget)
	}
	if n > rows {
		n = rows
	}
	if n < 1 {
		n = 1
	}
	return n
}

// sinkFor hands Options.ShardSink to the kernel it is documented for.
func (o *OptionsG[V]) sinkFor(alg Algorithm) *SpillSink[V] {
	if alg != AlgSharded {
		return nil
	}
	return o.ShardSink
}

// fillStripeStats records AlgSharded's per-stripe breakdown into st, which
// may be nil.
func (in *inspection[V]) fillStripeStats(st *ExecStats, rowPtr []int64, spilled bool) {
	if st == nil || st.Algorithm != AlgSharded {
		return
	}
	for s := 0; s < in.stripes(); s++ {
		lo, hi := in.offsets[s], in.offsets[s+1]
		st.Stripes = append(st.Stripes, StripeStats{
			Lo:      lo,
			Hi:      hi,
			Flop:    rangeFlop(in.flopRow, lo, hi),
			Nnz:     rowPtr[hi] - rowPtr[lo],
			Spilled: spilled,
		})
	}
}
