package baseline

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/spgemm"
)

// mapAcc adapts Go's built-in map to rowAcc. It is the accumulator of the
// MKL stand-ins: a general-purpose associative container with per-operation
// costs far above the specialized hash table, but completely insensitive to
// sizing.
//
// Map values are not addressable in Go, so the map stores an index into a
// parallel value slice and Upsert returns a pointer into that slice, valid
// until the next Upsert (an append may move the backing array) — callers
// write through the slot immediately.
type mapAcc struct {
	m    map[int32]int32
	keys []int32
	vals []float64
}

func newMapAcc() *mapAcc { return &mapAcc{m: make(map[int32]int32, 256)} }

func (m *mapAcc) Reset() {
	clear(m.m)
	m.keys = m.keys[:0]
	m.vals = m.vals[:0]
}

func (m *mapAcc) Len() int { return len(m.keys) }

func (m *mapAcc) InsertSymbolic(key int32) bool {
	_, fresh := m.Upsert(key)
	return fresh
}

func (m *mapAcc) Upsert(key int32) (*float64, bool) {
	if idx, ok := m.m[key]; ok {
		return &m.vals[idx], false
	}
	idx := int32(len(m.keys))
	m.m[key] = idx
	m.keys = append(m.keys, key)
	m.vals = append(m.vals, 0)
	return &m.vals[idx], true
}

func (m *mapAcc) ExtractUnsorted(cols []int32, vals []float64) int {
	copy(vals, m.vals)
	return copy(cols, m.keys)
}

// ExtractSorted comparison-sorts the row: the MKL stand-in's
// sorted-vs-unsorted gap is part of the profile it reproduces.
func (m *mapAcc) ExtractSorted(cols []int32, vals []float64) int {
	n := m.ExtractUnsorted(cols, vals)
	accum.SortPairs(cols[:n], vals[:n])
	return n
}

// inspector is the MKLInspector baseline: one-phase map accumulation. Each
// row's entries are appended to the worker's growable buffer as soon as they
// are computed and stitched into the final matrix afterwards, trading memory
// for the skipped symbolic pass.
func inspector(a, b *matrix.CSR, opt *Options) *matrix.CSR {
	workers := opt.workersFor(a.Rows)
	pt := startPhases(opt.Stats, workers)
	bufCols := make([][]int32, workers)
	bufVals := make([][]float64, workers)
	rowNnz := make([]int64, a.Rows)
	rowWorker := make([]int32, a.Rows)
	rowOffset := make([]int64, a.Rows)

	sched.ParallelFor(workers, a.Rows, sched.Guided, 16, pt.timed(func(w, lo, hi int) {
		acc := newMapAcc()
		var flop int64
		for i := lo; i < hi; i++ {
			acc.Reset()
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				k := a.ColIdx[p]
				av := a.Val[p]
				flop += b.RowPtr[k+1] - b.RowPtr[k]
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
			rowNnz[i], rowWorker[i], rowOffset[i] = int64(acc.Len()), int32(w), int64(len(bufCols[w]))
			bufCols[w] = append(bufCols[w], acc.keys...)
			bufVals[w] = append(bufVals[w], acc.vals...)
		}
		if ws := pt.worker(w); ws != nil {
			ws.Rows += int64(hi - lo)
			ws.Flop += flop
		}
	}))
	pt.tick(spgemm.PhaseNumeric)

	rowPtr := sched.PrefixSum(rowNnz, nil, workers)
	c := outputShell(a.Rows, b.Cols, rowPtr, false)
	pt.tick(spgemm.PhaseAlloc)
	sched.ParallelFor(workers, a.Rows, sched.Static, 1, pt.timed(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			src, off, n := rowWorker[i], rowOffset[i], rowNnz[i]
			copy(c.ColIdx[rowPtr[i]:rowPtr[i+1]], bufCols[src][off:off+n])
			copy(c.Val[rowPtr[i]:rowPtr[i+1]], bufVals[src][off:off+n])
		}
	}))
	if !opt.Unsorted {
		c.SortRows()
	}
	pt.tick(spgemm.PhaseAssemble)
	return c
}
