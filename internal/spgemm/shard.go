package spgemm

import (
	"math"
	"unsafe"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// AlgSharded's two decisions, which are all that sets it apart from AlgHash
// in the driver (driver.go): how many row stripes the product is cut into
// (shardStripes — enough that one stripe's output fits a memory budget,
// where Hash cuts one per worker) and where a finished stripe lands
// (ShardSink — nil for the output itself, the SpillSink of spill.go to bound
// the peak resident output memory by writing finished stripes to a
// temp-file-backed CSR).

// ShardSink receives finished stripes and assembles the product. The call
// protocol per multiply is: one Bind, then for every stripe one Stripe —
// which may block to bound resident memory — followed by writes into the
// returned window and one Commit, from pool workers concurrently; finally
// one Assemble from the driver after every stripe committed. Stripe windows
// for distinct s never overlap, so no synchronization covers the writes
// themselves. A failed Stripe or Commit fails the multiply once the running
// stripes have finished.
type ShardSink[V semiring.Value] interface {
	// Bind fixes the output geometry. rowPtr is the final global row
	// pointer array (length rows+1); the sink may retain it.
	Bind(rows, cols int, rowPtr []int64, sorted bool) error
	// Stripe returns the entry window for stripe s covering the global rows
	// [lo, hi): slices of length rowPtr[hi]-rowPtr[lo] the driver writes the
	// stripe's columns and values into. May block until resident space is
	// available.
	Stripe(s, lo, hi int) (cols []int32, vals []V, err error)
	// Commit marks stripe s's window fully written. After Commit the window
	// must no longer be touched (an out-of-core sink reuses its buffers).
	Commit(s int) error
	// Assemble returns the finished product once every stripe committed.
	Assemble() (*matrix.CSRG[V], error)
}

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
func (o *OptionsG[V]) sinkFor(alg Algorithm) ShardSink[V] {
	if alg != AlgSharded {
		return nil
	}
	return o.ShardSink
}
