package spgemm

import (
	"math"
	"slices"
	"unsafe"
)

// Budget stripes. Where the paper partitions the rows over exactly `workers`
// flop-balanced ranges (Figure 6, via sched.BalancedPartition), a two-phase
// product cuts the same partition finer once its output outgrows the
// resident budget — the row-stripe shape of distributed SpGEMM (Deveci et
// al., arXiv:1801.03065), sized so one stripe's output fits
// Options.ShardMemBudget (shardStripes). The stripes beyond the first W flow
// through the pool one at a time, and each finished stripe can land in a
// SpillSink (spill.go) instead of the whole output. The budget's count is a
// floor of the one stripe rule (claimStripes, driver.go), whose claimed cut
// at W > 1 may be finer; the driver's one stripe loop runs them. This file
// only counts the budget's stripes, reports what the cut looked like, and
// holds the one cut that is not by flop: nnzStripe, a pattern's rows by nnz,
// for products whose flop is not known when they cut (B's word masks, the
// one-column route).
//
// Identity guarantee: the product is bit-identical whatever the stripe count
// and the sink, sorted or unsorted. A row's products fold in A-row order
// through the same row function whichever stripe the row falls in, and rows
// land at the offsets the one row-pointer array dictates. A sorted row is
// extracted in column order; an unsorted one in first-touch order, which the
// SPA and the hash table both keep whatever their capacity (hashrow.go), so
// neither the stripe's table size nor its accumulator choice shows.

// defaultShardMemBudget is the resident-bytes target one stripe's output
// upper bound is sized against when Options.ShardMemBudget is zero.
const defaultShardMemBudget int64 = 256 << 20

// shardStripeCount picks the budget stripe count: enough stripes
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

// shardStripes is the stripe count of a two-phase product with the given
// flop total over rows, by the budget.
func (o *OptionsG[V]) shardStripes(totalFlop int64, rows, workers int) int {
	var zero V
	return shardStripeCount(totalFlop, rows, workers, int(unsafe.Sizeof(zero)), o.ShardMemBudget)
}

// fillStripeStats records a two-phase product's per-stripe breakdown into st,
// which may be nil.
func (in *inspection[V]) fillStripeStats(st *ExecStats, rowPtr []int64, spilled bool) {
	if st == nil {
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

// nnzStripe is stripe s of stripes cut of the rows of the pattern whose row
// pointers are rowPtr, by its nnz: rows [lo, hi), the last stripe ending at
// the last row. Every row falls in exactly one stripe.
func nnzStripe(rowPtr []int64, s, stripes int) (lo, hi int) {
	rows := len(rowPtr) - 1
	nnz := rowPtr[rows]
	lo, _ = slices.BinarySearch(rowPtr[:rows], nnz*int64(s)/int64(stripes))
	hi = rows
	if s+1 < stripes {
		hi, _ = slices.BinarySearch(rowPtr[:rows], nnz*int64(s+1)/int64(stripes))
	}
	return lo, hi
}
