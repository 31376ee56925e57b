// Package sched provides the loop-scheduling substrate of the paper's
// Section 3.1 and Section 4.1.
//
// It reimplements the three OpenMP schedules the paper microbenchmarks
// (static, dynamic, guided — Figure 2) on top of a goroutine worker pool,
// plus the paper's own contribution: the light-weight load-balanced static
// schedule of Figure 6, where rows are partitioned by a per-row flop count,
// a parallel prefix sum, and a binary search (lowbnd) per thread.
package sched

import (
	"runtime"
)

// Schedule selects how loop iterations are distributed over workers.
type Schedule int

const (
	// Static divides the iteration space into one contiguous block per
	// worker up front. Near-zero scheduling overhead; load balance is only
	// as good as the uniformity of per-iteration cost.
	Static Schedule = iota
	// Dynamic hands out fixed-size chunks from a shared atomic counter.
	// Perfect balance, but every chunk costs a contended atomic operation.
	Dynamic
	// Guided hands out geometrically shrinking chunks (remaining/2P, floored
	// at the grain) from a shared counter: large chunks early, small late.
	Guided
	// Balanced is the paper's scheme: a weighted static partition computed
	// from per-iteration work estimates (see BalancedPartition). It needs
	// the weights up front, so ParallelFor treats it as Static; SpGEMM
	// drivers call BalancedPartition explicitly.
	Balanced
)

// String returns the lower-case schedule name used in benchmark output.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	case Balanced:
		return "balanced"
	}
	return "unknown"
}

// DefaultWorkers returns the worker count to use when the caller does not
// specify one: GOMAXPROCS, the Go analogue of omp_get_max_threads().
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RunWorkers starts exactly `workers` invocations of body(worker) and waits
// for all of them. It is the building block for drivers that manage their
// own iteration ranges (e.g. the balanced partition of Figure 6). Workers
// run on the process-wide default Pool.
func RunWorkers(workers int, body func(worker int)) {
	Default().RunWorkers(workers, body)
}
