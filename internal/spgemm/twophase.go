package spgemm

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// rowAcc is the per-row accumulator contract shared by the two-phase
// algorithms (Hash, HashVector, SPA, Kokkos-style and the MKL map stand-in).
// An accumulator is owned by one worker, allocated once, and Reset between
// rows — the paper's thread-private "parallel" memory discipline.
//
// Accumulators are generic over the value type only and never see the
// semiring: Upsert hands the driver a pointer to the key's value slot plus a
// freshness flag, and the driver applies the ring (store on fresh,
// ring.Add otherwise). One accumulator implementation therefore serves
// every ring over V.
type rowAcc[V semiring.Value] interface {
	Reset()
	Len() int
	InsertSymbolic(key int32) bool
	Upsert(key int32) (*V, bool)
	Lookup(key int32) (V, bool)
	ExtractUnsorted(cols []int32, vals []V) int
	ExtractSorted(cols []int32, vals []V) int
}

// Interface conformance for the accum package types.
var (
	_ rowAcc[float64] = (*accum.HashTable)(nil)
	_ rowAcc[float64] = (*accum.HashVecTable)(nil)
	_ rowAcc[float64] = (*accum.SPA)(nil)
	_ rowAcc[float64] = (*accum.TwoLevelHash)(nil)
	_ rowAcc[bool]    = (*accum.HashTableG[bool])(nil)
)

// twoPhaseConfig parameterizes the shared symbolic+numeric driver.
type twoPhaseConfig[V semiring.Value] struct {
	// factory builds (or, via the call's Context, revives) worker w's
	// accumulator. bound is an upper bound on the entries any single row
	// handled by this worker can produce (max per-row flop, capped at the
	// column count) — the paper's Figure 7 sizing rule. Factories that
	// cache in ctx (hash, hashvec) make repeated calls allocation-free;
	// the baseline factories ignore ctx by design.
	factory func(ctx *ContextG[V], w int, bound int64) rowAcc[V]
	// schedule distributes rows over workers. Balanced uses the flop-
	// weighted partition of Figure 6; the others exist to reproduce
	// baseline behaviour (MKL: static; Kokkos: dynamic).
	schedule sched.Schedule
	// grain is the chunk size for dynamic/guided scheduling.
	grain int
}

// twoPhase runs the symbolic phase (per-row output sizes), materializes the
// row pointer array with a parallel prefix sum, and runs the numeric phase
// into the exactly-sized output — Figure 7 of the paper. The ring is applied
// by this driver alone; the accumulators only store values.
func twoPhase[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V], cfg twoPhaseConfig[V]) (*matrix.CSRG[V], error) {
	workers := opt.workersFor(a.Rows)
	ctx := opt.ctx()
	ctx.ensureWorkers(workers)
	pt := startPhases(opt.Stats, workers)
	flopRow := ctx.perRowFlop(a, b)

	// Row → worker assignment.
	var offsets []int
	balanced := cfg.schedule == sched.Balanced
	if balanced {
		offsets = ctx.partition(flopRow, workers, workers)
	}

	// Upper bound for accumulator sizing. Balanced workers size to their
	// own rows' max flop; other schedules cannot know their rows up front
	// and size to the global max (still capped at Cols).
	globalBound := int64(0)
	if !balanced {
		for _, f := range flopRow {
			if f > globalBound {
				globalBound = f
			}
		}
		globalBound = capBound(globalBound, b.Cols)
	}
	pt.tick(PhasePartition)

	accs := make([]rowAcc[V], workers)
	var maskAccs []*accum.HashTableG[V]
	if opt.Mask != nil {
		maskAccs = make([]*accum.HashTableG[V], workers)
	}
	getAcc := func(w int, bound int64) rowAcc[V] {
		if accs[w] == nil {
			accs[w] = cfg.factory(ctx, w, bound)
			if maskAccs != nil {
				maskBound := capBound(opt.Mask.MaxRowNNZ(), b.Cols)
				maskAccs[w] = accum.NewHashTableG[V](maskBound)
			}
		}
		return accs[w]
	}

	rowNnz := ctx.rowNnzBuf(a.Rows)

	// recordWorker folds worker w's row/flop tally and its accumulator's
	// cumulative counters into the stats. Called at the end of each numeric
	// chunk; the counter reads are assignments of cumulative values, so
	// repeated calls from the same worker are idempotent-safe.
	recordWorker := func(w, rows int, flop int64) {
		ws := pt.worker(w)
		if ws == nil {
			return
		}
		ws.Rows += int64(rows)
		ws.Flop += flop
		acc := accs[w]
		if acc == nil {
			return
		}
		if pc, ok := acc.(interface {
			Probes() int64
			Lookups() int64
		}); ok {
			ws.HashProbes = pc.Probes()
			ws.HashLookups = pc.Lookups()
		}
		if oc, ok := acc.(interface{ Overflows() int64 }); ok {
			ws.L2Overflows = oc.Overflows()
		}
	}

	symbolicRow := func(acc rowAcc[V], maskAcc *accum.HashTableG[V], i int) {
		acc.Reset()
		if maskAcc != nil {
			loadMask(maskAcc, opt.Mask, i)
		}
		alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
		for p := alo; p < ahi; p++ {
			k := a.ColIdx[p]
			blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
			for q := blo; q < bhi; q++ {
				c := b.ColIdx[q]
				if maskAcc != nil {
					if _, ok := maskAcc.Lookup(c); !ok {
						continue
					}
				}
				acc.InsertSymbolic(c)
			}
		}
		rowNnz[i] = int64(acc.Len())
	}

	// --- Symbolic phase ---
	if balanced {
		ctx.runWorkers("symbolic", workers, func(w int) {
			lo, hi := offsets[w], offsets[w+1]
			bound := int64(0)
			for i := lo; i < hi; i++ {
				if flopRow[i] > bound {
					bound = flopRow[i]
				}
			}
			acc := getAcc(w, capBound(bound, b.Cols))
			var maskAcc *accum.HashTableG[V]
			if maskAccs != nil {
				maskAcc = maskAccs[w]
			}
			for i := lo; i < hi; i++ {
				symbolicRow(acc, maskAcc, i)
			}
		})
	} else {
		ctx.parallelFor("symbolic", workers, a.Rows, cfg.schedule, cfg.grain, func(w, lo, hi int) {
			acc := getAcc(w, globalBound)
			var maskAcc *accum.HashTableG[V]
			if maskAccs != nil {
				maskAcc = maskAccs[w]
			}
			for i := lo; i < hi; i++ {
				symbolicRow(acc, maskAcc, i)
			}
		})
	}

	pt.tick(PhaseSymbolic)

	rowPtr := ctx.prefixSum(rowNnz, nil, workers)
	c := outputShell[V](a.Rows, b.Cols, rowPtr, !opt.Unsorted)
	pt.tick(PhaseAlloc)

	numericRow := func(acc rowAcc[V], maskAcc *accum.HashTableG[V], i int) {
		acc.Reset()
		if maskAcc != nil {
			loadMask(maskAcc, opt.Mask, i)
		}
		alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
		for p := alo; p < ahi; p++ {
			k := a.ColIdx[p]
			av := a.Val[p]
			blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
			for q := blo; q < bhi; q++ {
				col := b.ColIdx[q]
				if maskAcc != nil {
					if _, ok := maskAcc.Lookup(col); !ok {
						continue
					}
				}
				prod := ring.Mul(av, b.Val[q])
				slot, fresh := acc.Upsert(col)
				if fresh {
					*slot = prod
				} else {
					*slot = ring.Add(*slot, prod)
				}
			}
		}
		start := c.RowPtr[i]
		cols := c.ColIdx[start : start+rowNnz[i]]
		vals := c.Val[start : start+rowNnz[i]]
		if opt.Unsorted {
			acc.ExtractUnsorted(cols, vals)
		} else {
			acc.ExtractSorted(cols, vals)
		}
	}

	// --- Numeric phase ---
	if balanced {
		ctx.runWorkers("numeric", workers, func(w int) {
			lo, hi := offsets[w], offsets[w+1]
			acc := accs[w]
			if acc == nil { // worker had no rows in symbolic (possible with 0-row spans)
				return
			}
			var maskAcc *accum.HashTableG[V]
			if maskAccs != nil {
				maskAcc = maskAccs[w]
			}
			for i := lo; i < hi; i++ {
				numericRow(acc, maskAcc, i)
			}
			recordWorker(w, hi-lo, rangeFlop(flopRow, lo, hi))
		})
	} else {
		ctx.parallelFor("numeric", workers, a.Rows, cfg.schedule, cfg.grain, func(w, lo, hi int) {
			acc := getAcc(w, globalBound)
			var maskAcc *accum.HashTableG[V]
			if maskAccs != nil {
				maskAcc = maskAccs[w]
			}
			for i := lo; i < hi; i++ {
				numericRow(acc, maskAcc, i)
			}
			recordWorker(w, hi-lo, rangeFlop(flopRow, lo, hi))
		})
	}
	pt.tick(PhaseNumeric)
	pt.finish()
	return c, nil
}

// perRowFlop returns the flop count of each output row.
func perRowFlop[V semiring.Value](a, b *matrix.CSRG[V]) []int64 {
	_, perRow := matrix.Flop(a, b)
	return perRow
}

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

// loadMask fills the worker's mask table with the column pattern of mask row
// i. Only the mask's structure matters; its values are never read.
//
//spgemm:hotpath
func loadMask[V semiring.Value](maskAcc *accum.HashTableG[V], mask *matrix.CSRG[V], i int) {
	maskAcc.Reset()
	lo, hi := mask.RowPtr[i], mask.RowPtr[i+1]
	for p := lo; p < hi; p++ {
		maskAcc.InsertSymbolic(mask.ColIdx[p])
	}
}
