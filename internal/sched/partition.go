package sched

// This file implements the paper's Figure 6: RowsToThreads. Rows are assigned
// to threads in contiguous blocks whose total estimated work (flop) is as
// even as possible, computed with a prefix sum and one binary search per
// thread. This keeps the scheduling overhead of static scheduling while
// achieving the balance of dynamic scheduling.

// PrefixSum writes the exclusive prefix sum of weights into out (which must
// have len(weights)+1 entries; out[0]=0, out[i]=Σ weights[:i]) and returns
// out. If out is nil a new slice is allocated. The sum is computed in
// parallel for large inputs: each worker sums a block, block offsets are
// combined serially (P values), then blocks are fixed up in parallel.
// Parallel regions run on the process-wide default pool.
func PrefixSum(weights []int64, out []int64, workers int) []int64 {
	n := len(weights)
	if out == nil {
		out = make([]int64, n+1)
	}
	if len(out) != n+1 {
		panic("sched: PrefixSum out length must be len(weights)+1")
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	const serialCutoff = 1 << 14
	if workers == 1 || n < serialCutoff {
		var acc int64
		out[0] = 0
		for i, w := range weights {
			acc += w
			out[i+1] = acc
		}
		return out
	}
	if workers > n {
		workers = n
	}
	blockSums := make([]int64, workers)
	RunWorkers(workers, func(w int) {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		var acc int64
		for i := lo; i < hi; i++ {
			acc += weights[i]
			out[i+1] = acc // local inclusive sum; offset fixed below
		}
		blockSums[w] = acc
	})
	offsets := make([]int64, workers)
	var acc int64
	for w := 0; w < workers; w++ {
		offsets[w] = acc
		acc += blockSums[w]
	}
	out[0] = 0
	RunWorkers(workers, func(w int) {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		off := offsets[w]
		if off == 0 {
			return
		}
		for i := lo; i < hi; i++ {
			out[i+1] += off
		}
	})
	return out
}

// LowerBound returns the smallest index i such that a[i] >= v, or len(a) if
// no such index exists. a must be non-decreasing. This is the lowbnd of the
// paper's Figure 6.
func LowerBound(a []int64, v int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// BalancedPartition implements RowsToThreads (Figure 6): given per-row work
// weights, it returns offsets of length parts+1 such that rows
// [offsets[t], offsets[t+1]) are assigned to thread t and every thread's
// total weight is within one row's weight of the average. The prefix sum is
// computed in parallel; each boundary is found with one binary search.
func BalancedPartition(weights []int64, parts int, workers int) []int {
	return BalancedPartitionInto(weights, parts, workers, nil, nil)
}

// BalancedPartitionInto is BalancedPartition with caller-provided buffers:
// offsets receives the partition (grown when its capacity is below parts+1)
// and ps is scratch for the prefix sum (grown when below len(weights)+1).
// Either may be nil. Iterative callers (spgemm.Context) pass the same buffers
// every multiplication so the partition allocates nothing at steady state.
func BalancedPartitionInto(weights []int64, parts, workers int, offsets []int, ps []int64) []int {
	n := len(weights)
	if parts <= 0 {
		parts = 1
	}
	if cap(offsets) < parts+1 {
		offsets = make([]int, parts+1)
	}
	offsets = offsets[:parts+1]
	for i := range offsets {
		offsets[i] = 0
	}
	if n == 0 {
		return offsets
	}
	if cap(ps) < n+1 {
		ps = make([]int64, n+1)
	}
	ps = PrefixSum(weights, ps[:n+1], workers)
	total := ps[n]
	if total == 0 {
		// Degenerate: all weights zero; fall back to equal row counts.
		for t := 0; t <= parts; t++ {
			offsets[t] = t * n / parts
		}
		return offsets
	}
	ave := float64(total) / float64(parts)
	offsets[0] = 0
	for t := 1; t < parts; t++ {
		target := int64(ave * float64(t))
		// lowbnd over the inclusive prefix array ps[1..n]; index i in ps
		// corresponds to "first i rows".
		idx := LowerBound(ps[1:], target)
		if idx > n {
			idx = n
		}
		if idx < offsets[t-1] {
			idx = offsets[t-1] // keep offsets monotone even with zero rows
		}
		offsets[t] = idx
	}
	offsets[parts] = n
	// Monotonicity repair (possible when many rows have zero weight).
	for t := 1; t <= parts; t++ {
		if offsets[t] < offsets[t-1] {
			offsets[t] = offsets[t-1]
		}
	}
	return offsets
}

// PartitionImbalance returns max thread weight divided by average thread
// weight for the given partition — 1.0 is perfect balance. Used by tests and
// the Fig 9 experiment report.
func PartitionImbalance(weights []int64, offsets []int) float64 {
	parts := len(offsets) - 1
	var total, maxPart int64
	for t := 0; t < parts; t++ {
		var s int64
		for i := offsets[t]; i < offsets[t+1]; i++ {
			s += weights[i]
		}
		total += s
		if s > maxPart {
			maxPart = s
		}
	}
	if total == 0 {
		return 1
	}
	return float64(maxPart) * float64(parts) / float64(total)
}
