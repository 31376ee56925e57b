package spgemm

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// mapAcc adapts Go's built-in map to the rowAcc interface. It is the
// accumulator of the MKL stand-in baseline: a general-purpose associative
// container with per-operation costs far above the specialized hash table,
// but completely insensitive to sizing.
//
// Map values are not addressable in Go, so Upsert cannot hand out a pointer
// into the map itself; instead the map stores an index into a parallel value
// slice and Upsert returns a pointer into that slice. The pointer is valid
// until the next Upsert (an append may move the backing array), which is
// exactly the rowAcc contract: callers write through the slot immediately.
type mapAcc[V semiring.Value] struct {
	m    map[int32]int32
	keys []int32
	vals []V
}

func newMapAcc[V semiring.Value]() *mapAcc[V] {
	return &mapAcc[V]{m: make(map[int32]int32, 256)}
}

func (m *mapAcc[V]) Reset() {
	clear(m.m)
	m.keys = m.keys[:0]
	m.vals = m.vals[:0]
}

func (m *mapAcc[V]) Len() int { return len(m.keys) }

func (m *mapAcc[V]) InsertSymbolic(key int32) bool {
	if _, ok := m.m[key]; ok {
		return false
	}
	var zero V
	m.m[key] = int32(len(m.keys))
	m.keys = append(m.keys, key)
	m.vals = append(m.vals, zero)
	return true
}

func (m *mapAcc[V]) Upsert(key int32) (*V, bool) {
	if idx, ok := m.m[key]; ok {
		return &m.vals[idx], false
	}
	var zero V
	idx := int32(len(m.keys))
	m.m[key] = idx
	m.keys = append(m.keys, key)
	m.vals = append(m.vals, zero)
	return &m.vals[idx], true
}

func (m *mapAcc[V]) Lookup(key int32) (V, bool) {
	if idx, ok := m.m[key]; ok {
		return m.vals[idx], true
	}
	var zero V
	return zero, false
}

func (m *mapAcc[V]) ExtractUnsorted(cols []int32, vals []V) int {
	n := copy(cols, m.keys)
	copy(vals, m.vals)
	return n
}

func (m *mapAcc[V]) ExtractSorted(cols []int32, vals []V) int {
	n := m.ExtractUnsorted(cols, vals)
	accum.SortPairs(cols[:n], vals[:n])
	return n
}

// mapMultiply is the AlgMKL baseline: two-phase map accumulation with plain
// static scheduling — see the DESIGN.md substitution table for why this
// reproduces MKL's qualitative profile (load imbalance on skewed inputs,
// large sorted-vs-unsorted gap, strength at high compression ratio).
func mapMultiply[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	cfg := twoPhaseConfig[V]{
		schedule: sched.Static,
		factory:  func(ctx *ContextG[V], w int, bound int64) rowAcc[V] { return newMapAcc[V]() },
	}
	return twoPhase(ring, a, b, opt, cfg)
}

// inspectorMultiply is the AlgMKLInspector baseline: one-phase map
// accumulation into per-worker growable buffers, unsorted output only,
// guided scheduling. One-phase means each row's results are appended to the
// worker's buffer as soon as they are computed and stitched into the final
// matrix afterwards, trading memory for the skipped symbolic pass.
func inspectorMultiply[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	workers := opt.workersFor(a.Rows)
	type rowRef struct {
		row    int
		offset int64
		n      int64
	}
	pt := startPhases(opt.Stats, workers)
	bufCols := make([][]int32, workers)
	bufVals := make([][]V, workers)
	refs := make([][]rowRef, workers)

	sched.ParallelForNamed("numeric", workers, a.Rows, sched.Guided, 16, func(w, lo, hi int) {
		acc := newMapAcc[V]()
		for i := lo; i < hi; i++ {
			acc.Reset()
			alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
			for p := alo; p < ahi; p++ {
				k := a.ColIdx[p]
				av := a.Val[p]
				blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
				for q := blo; q < bhi; q++ {
					prod := ring.Mul(av, b.Val[q])
					slot, fresh := acc.Upsert(b.ColIdx[q])
					if fresh {
						*slot = prod
					} else {
						*slot = ring.Add(*slot, prod)
					}
				}
			}
			off := int64(len(bufCols[w]))
			bufCols[w] = append(bufCols[w], acc.keys...)
			bufVals[w] = append(bufVals[w], acc.vals...)
			refs[w] = append(refs[w], rowRef{row: i, offset: off, n: int64(len(bufCols[w])) - off})
		}
		if ws := pt.worker(w); ws != nil {
			ws.Rows += int64(hi - lo)
			for i := lo; i < hi; i++ {
				alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
				for p := alo; p < ahi; p++ {
					k := a.ColIdx[p]
					ws.Flop += b.RowPtr[k+1] - b.RowPtr[k]
				}
			}
		}
	})
	pt.tick(PhaseNumeric)

	rowNnz := make([]int64, a.Rows)
	rowWorker := make([]int32, a.Rows)
	rowOffset := make([]int64, a.Rows)
	for w := 0; w < workers; w++ {
		for _, r := range refs[w] {
			rowNnz[r.row] = r.n
			rowWorker[r.row] = int32(w)
			rowOffset[r.row] = r.offset
		}
	}
	rowPtr := sched.PrefixSum(rowNnz, nil, workers)
	// The inspector path is inherently unsorted; honor a sorted request by
	// sorting rows at the end (the post-processing a user would need).
	c := outputShell[V](a.Rows, b.Cols, rowPtr, false)
	pt.tick(PhaseAlloc)
	sched.ParallelForNamed("assemble", workers, a.Rows, sched.Static, 1, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			src := rowWorker[i]
			off := rowOffset[i]
			n := rowNnz[i]
			copy(c.ColIdx[rowPtr[i]:rowPtr[i]+n], bufCols[src][off:off+n])
			copy(c.Val[rowPtr[i]:rowPtr[i]+n], bufVals[src][off:off+n])
		}
	})
	if !opt.Unsorted {
		mSortPost.Inc()
		c.SortRows()
	}
	pt.tick(PhaseAssemble)
	pt.finish()
	return c, nil
}
