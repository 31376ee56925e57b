package baseline

import (
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/spgemm"
)

// rowAcc is the per-row accumulator contract the two-phase baselines share.
// An accumulator is owned by one worker, allocated once per multiply, and
// Reset between rows. The interface dispatch per intermediate product is
// part of what these baselines measure: the production kernels
// (internal/spgemm) call concrete tables.
type rowAcc interface {
	Reset()
	Len() int
	InsertSymbolic(key int32) bool
	Upsert(key int32) (*float64, bool)
	ExtractUnsorted(cols []int32, vals []float64) int
	ExtractSorted(cols []int32, vals []float64) int
}

// twoPhaseConfig parameterizes the shared symbolic+numeric driver.
type twoPhaseConfig struct {
	// factory builds one worker's accumulator. bound is an upper bound on
	// the entries any single row handled by that worker can produce (max
	// per-row flop, capped at the column count).
	factory func(bound int64) rowAcc
	// schedule distributes rows over workers. Balanced is the flop-weighted
	// partition of Figure 6; the others reproduce baseline behaviour (MKL:
	// static; Kokkos: dynamic).
	schedule sched.Schedule
	// grain is the chunk size for dynamic/guided scheduling.
	grain int
	// unsortedOnly marks a kernel that cannot emit sorted rows: a sorted
	// request is honored by sorting the finished matrix, charged to
	// PhaseAssemble.
	unsortedOnly bool
}

// twoPhase runs the symbolic phase (per-row output sizes), builds the row
// pointers with a prefix sum, and runs the numeric phase into the
// exactly-sized output — Figure 7 of the paper, over an interface.
func twoPhase(a, b *matrix.CSR, opt *Options, cfg twoPhaseConfig) *matrix.CSR {
	workers := opt.workersFor(a.Rows)
	unsorted := opt.Unsorted || cfg.unsortedOnly
	pt := startPhases(opt.Stats, workers)
	_, flopRow := matrix.Flop(a, b)

	// Balanced workers size their accumulator to their own rows' max flop;
	// other schedules cannot know their rows up front and size to the
	// global max. Either way capped at Cols.
	balanced := cfg.schedule == sched.Balanced
	var offsets []int
	if balanced {
		offsets = sched.BalancedPartition(flopRow, workers, workers)
	}
	_, globalMax := flopSumMax(flopRow, 0, a.Rows)
	accs := make([]rowAcc, workers)
	getAcc := func(w, lo, hi int) rowAcc {
		if accs[w] == nil {
			bound := globalMax
			if balanced {
				_, bound = flopSumMax(flopRow, lo, hi)
			}
			accs[w] = cfg.factory(min(bound, int64(b.Cols)))
		}
		return accs[w]
	}
	// forRows runs body over every row, under cfg.schedule.
	forRows := func(body func(w, lo, hi int)) {
		body = pt.timed(body)
		if balanced {
			sched.RunWorkers(workers, func(w int) { body(w, offsets[w], offsets[w+1]) })
		} else {
			sched.ParallelFor(workers, a.Rows, cfg.schedule, cfg.grain, body)
		}
	}
	pt.tick(spgemm.PhasePartition)

	rowNnz := make([]int64, a.Rows)
	forRows(func(w, lo, hi int) {
		acc := getAcc(w, lo, hi)
		for i := lo; i < hi; i++ {
			acc.Reset()
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				k := a.ColIdx[p]
				for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
					acc.InsertSymbolic(b.ColIdx[q])
				}
			}
			rowNnz[i] = int64(acc.Len())
		}
	})
	pt.tick(spgemm.PhaseSymbolic)

	rowPtr := sched.PrefixSum(rowNnz, nil, workers)
	c := outputShell(a.Rows, b.Cols, rowPtr, !unsorted)
	pt.tick(spgemm.PhaseAlloc)

	forRows(func(w, lo, hi int) {
		acc := getAcc(w, lo, hi)
		for i := lo; i < hi; i++ {
			acc.Reset()
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				k := a.ColIdx[p]
				av := a.Val[p]
				for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
					prod := av * b.Val[q]
					slot, fresh := acc.Upsert(b.ColIdx[q])
					if fresh {
						*slot = prod
					} else {
						*slot += prod
					}
				}
			}
			cols := c.ColIdx[rowPtr[i]:rowPtr[i+1]]
			vals := c.Val[rowPtr[i]:rowPtr[i+1]]
			if unsorted {
				acc.ExtractUnsorted(cols, vals)
			} else {
				acc.ExtractSorted(cols, vals)
			}
		}
		if ws := pt.worker(w); ws != nil {
			flop, _ := flopSumMax(flopRow, lo, hi)
			ws.Rows += int64(hi - lo)
			ws.Flop += flop
			// The accumulators' counters are cumulative, so a worker that
			// runs several chunks assigns rather than adds.
			if pc, ok := acc.(interface {
				Probes() int64
				Lookups() int64
			}); ok {
				ws.HashProbes, ws.HashLookups = pc.Probes(), pc.Lookups()
			}
			if oc, ok := acc.(interface{ Overflows() int64 }); ok {
				ws.L2Overflows = oc.Overflows()
			}
		}
	})
	pt.tick(spgemm.PhaseNumeric)
	if unsorted && !opt.Unsorted {
		c.SortRows()
		pt.tick(spgemm.PhaseAssemble)
	}
	return c
}
