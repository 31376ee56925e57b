package spgemm

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// ikjMultiply is the IKJ method of Sulatycke and Ghose (IPPS/SPDP 1998) —
// per the paper's Section 2, the first shared-memory parallel SpGEMM. The
// middle loop runs over the full inner dimension k (not just the nonzeros of
// row a_i*), giving work complexity O(n² + flop): "the IKJ method is only
// competitive when flop ≥ n², which is rare for SpGEMM". It is included as
// the historical baseline; BenchmarkAblationIKJ shows the crossover.
//
// The row of A is first scattered into a generation-stamped dense vector so
// the k-loop is a dense scan (the cache-friendly access pattern that
// motivated the original work), then each hit streams row b_k*.
func ikjMultiply[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	workers := opt.workersFor(a.Rows)
	pt := startPhases(opt.Stats, workers)
	flopRow := perRowFlop(a, b)
	// Balance by flop + the O(n) dense scan each row pays.
	weights := make([]int64, a.Rows)
	for i := range weights {
		weights[i] = flopRow[i] + int64(a.Cols)
	}
	offsets := sched.BalancedPartition(weights, workers, workers)
	pt.tick(PhasePartition)

	rowNnz := make([]int64, a.Rows)
	spas := make([]*accum.SPAG[V], workers)
	arows := make([]*accum.SPAG[V], workers)

	runRow := func(w int, i int, numeric bool, c *matrix.CSRG[V]) {
		acc := spas[w]
		arow := arows[w]
		acc.Reset()
		arow.Reset()
		alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
		for p := alo; p < ahi; p++ {
			slot, fresh := arow.Upsert(a.ColIdx[p])
			if fresh {
				*slot = a.Val[p]
			} else {
				*slot = ring.Add(*slot, a.Val[p])
			}
		}
		// The defining dense K loop.
		for k := 0; k < a.Cols; k++ {
			av, ok := arow.Lookup(int32(k))
			if !ok {
				continue
			}
			blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
			if numeric {
				for q := blo; q < bhi; q++ {
					prod := ring.Mul(av, b.Val[q])
					slot, fresh := acc.Upsert(b.ColIdx[q])
					if fresh {
						*slot = prod
					} else {
						*slot = ring.Add(*slot, prod)
					}
				}
			} else {
				for q := blo; q < bhi; q++ {
					acc.InsertSymbolic(b.ColIdx[q])
				}
			}
		}
		if numeric {
			start := c.RowPtr[i]
			cols := c.ColIdx[start : start+rowNnz[i]]
			vals := c.Val[start : start+rowNnz[i]]
			if opt.Unsorted {
				acc.ExtractUnsorted(cols, vals)
			} else {
				acc.ExtractSorted(cols, vals)
			}
		} else {
			rowNnz[i] = int64(acc.Len())
		}
	}

	sched.RunWorkersNamed("symbolic", workers, func(w int) {
		lo, hi := offsets[w], offsets[w+1]
		if lo >= hi {
			return
		}
		spas[w] = accum.NewSPAG[V](b.Cols)
		arows[w] = accum.NewSPAG[V](a.Cols)
		for i := lo; i < hi; i++ {
			runRow(w, i, false, nil)
		}
	})
	pt.tick(PhaseSymbolic)
	rowPtr := sched.PrefixSum(rowNnz, nil, workers)
	c := outputShell[V](a.Rows, b.Cols, rowPtr, !opt.Unsorted)
	pt.tick(PhaseAlloc)
	sched.RunWorkersNamed("numeric", workers, func(w int) {
		lo, hi := offsets[w], offsets[w+1]
		if lo >= hi {
			return
		}
		for i := lo; i < hi; i++ {
			runRow(w, i, true, c)
		}
		if ws := pt.worker(w); ws != nil {
			ws.Rows = int64(hi - lo)
			ws.Flop = rangeFlop(flopRow, lo, hi)
		}
	})
	pt.tick(PhaseNumeric)
	pt.finish()
	return c, nil
}
