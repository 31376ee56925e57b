package spgemm

// AlgSharded: AlgHash cut into more stripes. Where Hash partitions the rows
// over exactly `workers` flop-balanced ranges (Figure 6 of the paper, via
// sched.BalancedPartition) and runs each start-to-finish on its worker,
// Sharded cuts the same partition finer — the row-stripe shape of
// distributed SpGEMM (Deveci et al., arXiv:1801.03065), sized so one stripe's
// output fits Options.ShardMemBudget — lets the stripes flow through the pool
// one at a time, and can hand each finished stripe to a ShardSink instead of
// holding the whole output. Both run the driver's one stripe loop
// (driver.go); this file only reports what the cut looked like.
//
// Identity guarantee: with sorted output, the product is bit-identical to
// AlgHash on the same inputs, whatever the stripe count and the sink. A row's
// products fold in A-row order through the same row function whichever stripe
// the row falls in, per-row extraction sorts canonically, and rows land at
// the offsets the one row-pointer array dictates. With unsorted output the
// entry *sets* match but the order within a row may differ — hash-table
// iteration order depends on table capacity, which is sized per stripe.

// shardSpiller is the optional sink capability StripeStats reports.
type shardSpiller interface{ Spills() bool }

// fillStripeStats records AlgSharded's per-stripe breakdown into st, which
// may be nil.
func (in *inspection[V]) fillStripeStats(st *ExecStats, rowPtr []int64, sink ShardSink[V]) {
	if st == nil || st.Algorithm != AlgSharded {
		return
	}
	sp, ok := sink.(shardSpiller)
	spilled := ok && sp.Spills()
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
