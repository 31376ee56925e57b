package spgemm

import (
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// AlgSharded: the staged shard geometry of the hash-family driver
// (driver.go). AlgHash partitions rows over exactly `workers` ranges and runs
// each range start-to-finish on its worker; here the same pipeline is cut into
// stripe-local ShardUnits — usually many more stripes than workers — that
// flow through the pool with dynamic scheduling and land in a pluggable
// ShardSink. The decomposition follows the 1.5D/row-stripe shape of
// distributed SpGEMM (Deveci et al., arXiv:1801.03065): stripes are
// flop-balanced (Figure 6 of the paper, via sched.BalancedPartition), and a
// stripe whose accumulator bound overflows the memmodel cache tier sweeps B
// in ascending column blocks (matrix.ColBlock) so its table stays
// cache-resident.
//
// Identity guarantee: with sorted output, the product is bit-identical to
// AlgHash on the same inputs. Each output entry's products fold in A-row
// order in both engines (the column-block sweep also visits every k of a row
// per block, in order), per-row extraction sorts canonically, ascending
// blocks concatenate sorted, and the sink places rows at the same global
// offsets the monolithic kernel computes. With unsorted output the entry
// *sets* match but the order within a row may differ — hash-table iteration
// order depends on table capacity, which legitimately differs per stripe.

// shardSymbolic runs every stripe's symbolic stage through the pool with
// dynamic scheduling (stripes are flop-balanced, but symbolic cost still
// varies; stealing idle workers is free here).
func shardSymbolic[V semiring.Value](ctx *ContextG[V], src ShardSource[V], workers int, rowNnz []int64) {
	ctx.parallelFor("shard-symbolic", workers, src.Shards(), sched.Dynamic, 1, func(w, lo, hi int) {
		for s := lo; s < hi; s++ {
			src.Unit(s).Symbolic(w, rowNnz)
		}
	})
}

// shardNumeric runs every stripe's numeric stage and merge through the pool.
// Each stripe checks out its sink window (which may block on an out-of-core
// sink's resident budget), fills it, and commits it before the next stripe
// starts on that worker — overlapping stripe computation with stripe
// writeback is exactly what bounds the sink's resident set.
func shardNumeric[V semiring.Value](ctx *ContextG[V], src ShardSource[V], workers int, rowPtr []int64, sink ShardSink[V], pt *phaseTimer) error {
	n := src.Shards()
	errs := make([]error, n)
	ctx.parallelFor("shard-numeric", workers, n, sched.Dynamic, 1, func(w, lo, hi int) {
		ws := pt.worker(w) // may be nil; units accumulate with +=
		for s := lo; s < hi; s++ {
			u := src.Unit(s)
			slo, shi := src.Rows(s)
			cols, vals, err := sink.Stripe(s, slo, shi)
			if err != nil {
				errs[s] = err
				continue
			}
			u.Numeric(w, rowPtr, cols, vals, ws)
			if err := u.Merge(sink); err != nil {
				errs[s] = err
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardSpiller is the optional sink capability StripeStats reports.
type shardSpiller interface{ Spills() bool }

// fillStripeStats records the per-stripe breakdown into ExecStats.
func fillStripeStats[V semiring.Value](st *ExecStats, geom *shardGeometry, flopRow, rowPtr []int64, sink ShardSink[V]) {
	if st == nil {
		return
	}
	spilled := false
	if sp, ok := sink.(shardSpiller); ok {
		spilled = sp.Spills()
	}
	for s := 0; s+1 < len(geom.offsets); s++ {
		lo, hi := geom.offsets[s], geom.offsets[s+1]
		st.Stripes = append(st.Stripes, StripeStats{
			Lo:       lo,
			Hi:       hi,
			Flop:     rangeFlop(flopRow, lo, hi),
			Nnz:      rowPtr[hi] - rowPtr[lo],
			ColSplit: geom.wide[s],
			Spilled:  spilled,
		})
	}
}

// hashShardSource adapts the hash kernel to the shard interfaces: one
// hashStripeUnit per stripe, preallocated so Unit hands out stable pointers.
type hashShardSource[V semiring.Value, R semiring.Ring[V]] struct {
	units []hashStripeUnit[V, R]
}

func newHashShardSource[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], ctx *ContextG[V], geom *shardGeometry, flopRow []int64, unsorted bool) *hashShardSource[V, R] {
	n := len(geom.offsets) - 1
	src := &hashShardSource[V, R]{units: make([]hashStripeUnit[V, R], n)}
	for s := 0; s < n; s++ {
		src.units[s] = hashStripeUnit[V, R]{
			ring:      ring,
			a:         a,
			b:         b,
			ctx:       ctx,
			s:         s,
			lo:        geom.offsets[s],
			hi:        geom.offsets[s+1],
			bound:     geom.bound[s],
			wide:      geom.wide[s],
			blockCols: geom.blockCols,
			unsorted:  unsorted,
			flopRow:   flopRow,
		}
	}
	return src
}

func (h *hashShardSource[V, R]) Shards() int { return len(h.units) }

func (h *hashShardSource[V, R]) Rows(s int) (int, int) {
	u := &h.units[s]
	return u.lo, u.hi
}

func (h *hashShardSource[V, R]) Unit(s int) ShardUnit[V] { return &h.units[s] }

// hashStripeUnit is the hash kernel scoped to one row stripe. The narrow
// path runs AlgHash's row functions (hashrow.go) with global row indices, so
// stripe outputs are byte-for-byte what the monolithic kernel would write at
// the same offsets. The wide path sweeps B in ascending column blocks with a
// table bounded by the block width — the cache-resident regime — and relies
// on per-block sorted extraction concatenating into sorted rows.
type hashStripeUnit[V semiring.Value, R semiring.Ring[V]] struct {
	ring      R
	a, b      *matrix.CSRG[V]
	ctx       *ContextG[V]
	s         int
	lo, hi    int
	bound     int64
	wide      bool
	blockCols int
	unsorted  bool
	flopRow   []int64
}

func (u *hashStripeUnit[V, R]) Symbolic(w int, rowNnz []int64) {
	a, b := u.a, u.b
	if !u.wide {
		u.ctx.hashSymbolic(w, a, b, u.flopRow, u.lo, u.hi, rowNnz, nil)
		return
	}
	table := u.ctx.hashTable(w, capBound(u.bound, u.blockCols))
	for i := u.lo; i < u.hi; i++ {
		var total int64
		alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
		for c0 := 0; c0 < b.Cols; c0 += u.blockCols {
			c1 := c0 + u.blockCols
			if c1 > b.Cols {
				c1 = b.Cols
			}
			blk := matrix.ColBlockOf(b, int32(c0), int32(c1))
			table.Reset()
			for p := alo; p < ahi; p++ {
				cols, _, exact := blk.Row(int(a.ColIdx[p]))
				if exact {
					for _, col := range cols {
						table.InsertSymbolic(col)
					}
				} else {
					for _, col := range cols {
						if col >= int32(c0) && col < int32(c1) {
							table.InsertSymbolic(col)
						}
					}
				}
			}
			total += int64(table.Len())
		}
		rowNnz[i] = total
	}
}

func (u *hashStripeUnit[V, R]) Numeric(w int, rowPtr []int64, cols []int32, vals []V, ws *WorkerStats) {
	a, b := u.a, u.b
	base := rowPtr[u.lo]
	if !u.wide {
		h := newHashNumeric(u.ring, u.ctx.hashTable(w, u.bound), a, b, cols, vals, !u.unsorted)
		h.rows(u.flopRow, rowPtr, u.lo, u.hi, base)
		if ws != nil {
			ws.Rows += int64(u.hi - u.lo)
			ws.Flop += rangeFlop(u.flopRow, u.lo, u.hi)
			h.report(ws)
		}
		return
	}
	table := u.ctx.hashTable(w, capBound(u.bound, u.blockCols))
	for i := u.lo; i < u.hi; i++ {
		off := rowPtr[i] - base
		alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
		for c0 := 0; c0 < b.Cols; c0 += u.blockCols {
			c1 := c0 + u.blockCols
			if c1 > b.Cols {
				c1 = b.Cols
			}
			blk := matrix.ColBlockOf(b, int32(c0), int32(c1))
			table.Reset()
			for p := alo; p < ahi; p++ {
				av := a.Val[p]
				bcols, bvals, exact := blk.Row(int(a.ColIdx[p]))
				for q := range bcols {
					col := bcols[q]
					if !exact && (col < int32(c0) || col >= int32(c1)) {
						continue
					}
					prod := u.ring.Mul(av, bvals[q])
					slot, fresh := table.Upsert(col)
					if fresh {
						*slot = prod
					} else {
						*slot = u.ring.Add(*slot, prod)
					}
				}
			}
			n := int64(table.Len())
			if u.unsorted {
				table.ExtractUnsorted(cols[off:off+n], vals[off:off+n])
			} else {
				table.ExtractSorted(cols[off:off+n], vals[off:off+n])
			}
			off += n
		}
	}
	if ws != nil {
		ws.Rows += int64(u.hi - u.lo)
		ws.Flop += rangeFlop(u.flopRow, u.lo, u.hi)
		ws.HashLookups += table.Lookups()
		ws.HashProbes += table.Probes()
	}
}

func (u *hashStripeUnit[V, R]) Merge(sink ShardSink[V]) error { return sink.Commit(u.s) }
