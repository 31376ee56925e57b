package spgemm

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// maskedHashMultiply is Hash SpGEMM (Figure 7) and, with vectorized=true,
// HashVector SpGEMM with an output mask fused in, on the generic two-phase
// driver. Unmasked products — the headline algorithms, which must not pay an
// interface dispatch per intermediate product when the hand-written heap
// driver does not — run the concrete-type driver in driver.go instead.
func maskedHashMultiply[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V], vectorized bool) (*matrix.CSRG[V], error) {
	cfg := twoPhaseConfig[V]{
		schedule: sched.Balanced,
		factory: func(ctx *ContextG[V], w int, bound int64) rowAcc[V] {
			if vectorized {
				return ctx.hashVecTable(w, bound)
			}
			return ctx.hashTable(w, bound)
		},
	}
	return twoPhase(ring, a, b, opt, cfg)
}

// spaMultiply is Gustavson's algorithm with a dense sparse accumulator:
// every worker owns an O(Cols) dense array with generation-stamped
// occupancy. Balanced scheduling, two-phase for exact allocation.
func spaMultiply[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	cfg := twoPhaseConfig[V]{
		schedule: sched.Balanced,
		factory: func(ctx *ContextG[V], w int, bound int64) rowAcc[V] {
			return accum.NewSPAG[V](b.Cols)
		},
	}
	return twoPhase(ring, a, b, opt, cfg)
}

// kokkosMultiply models KokkosKernels' kkmem: two-level hashmap accumulator
// with dynamic scheduling; unsorted output only (Table 1: "Any/Unsorted").
// A sorted request is honored by sorting rows afterwards, mirroring how a
// user of such a library would have to post-process.
func kokkosMultiply[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	inner := *opt
	inner.Unsorted = true
	cfg := twoPhaseConfig[V]{
		schedule: sched.Dynamic,
		grain:    64,
		factory: func(ctx *ContextG[V], w int, bound int64) rowAcc[V] {
			return accum.NewTwoLevelHashG[V](0)
		},
	}
	c, err := twoPhase(ring, a, b, &inner, cfg)
	if err != nil {
		return nil, err
	}
	if !opt.Unsorted {
		mSortPost.Inc()
		start := statsNow(opt.Stats)
		c.SortRows()
		opt.Stats.addPhase(PhaseAssemble, statsSince(opt.Stats, start))
	}
	return c, nil
}
