package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/spgemm"
)

// The reuse experiment quantifies what the paper's Section 3.2 memory
// management and the inspector-executor pattern (MKL's mkl_sparse_sp2m two-
// stage interface, Section 4.2) buy an *iterative* SpGEMM workload: the same
// A² product executed repeatedly, as in MCL expansion or multi-source BFS.
// Three variants:
//
//	oneshot — spgemm.Multiply with nil Context: every call pays partition,
//	          symbolic, and all per-worker allocations (status quo ante).
//	context — one spgemm.Context across calls: accumulators, scratch and
//	          bookkeeping are allocated once and reused; partition+symbolic
//	          still run every call.
//	plan    — spgemm.NewPlan once, Plan.Execute per call: the symbolic
//	          result itself is cached, so re-execution runs only the numeric
//	          phase (plus the structure-fingerprint check) — streamed through
//	          the plan's replay map, which the warm-up builds.
//
// Reported per variant: time and MFLOPS per iteration, plus heap allocations
// and bytes per iteration (runtime.MemStats deltas — the analogue of
// testing's -benchmem for this harness).

// reuseVariant names one measured configuration.
type reuseVariant struct {
	Alg     string
	Variant string
	NsPerOp int64
	MFLOPS  float64
	Allocs  uint64
	Bytes   uint64
}

// timedAllocs runs f iters times and returns per-iteration wall time, heap
// allocation count and allocated bytes.
func timedAllocs(iters int, f func()) (time.Duration, uint64, uint64) {
	if iters < 1 {
		iters = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := uint64(iters)
	return d / time.Duration(iters), (m1.Mallocs - m0.Mallocs) / n, (m1.TotalAlloc - m0.TotalAlloc) / n
}

// timedAllocsMin is timedAllocs reporting the MINIMUM iteration time instead
// of the mean: one scheduling hiccup, GC pause train or burst of hypervisor
// steal time can inflate a mean of a few long iterations by tens of percent,
// and the minimum is the least-disturbed observation of the same
// deterministic work. Allocation counters stay per-iteration means.
func timedAllocsMin(iters int, f func()) (time.Duration, uint64, uint64) {
	if iters < 1 {
		iters = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	best := time.Duration(0)
	for i := 0; i < iters; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&m1)
	n := uint64(iters)
	return best, (m1.Mallocs - m0.Mallocs) / n, (m1.TotalAlloc - m0.TotalAlloc) / n
}

// measureReuse runs the three variants for both hash algorithms on ER A².
func measureReuse(cfg Config) (scale int, flop int64, out []reuseVariant, err error) {
	scale = 14 // the acceptance workload: ER scale 14, edge factor 16
	switch cfg.Preset {
	case Tiny:
		scale = 8
	case Full:
		scale = 16
	}
	rng := rand.New(rand.NewSource(cfg.seed()))
	a := gen.ER(scale, 16, rng)
	flop, _ = matrix.Flop(a, a)
	iters := cfg.reps()
	workers := cfg.workers()

	for _, alg := range []spgemm.Algorithm{spgemm.AlgHash, spgemm.AlgHashVec} {
		// One-shot: fresh state every call.
		oneshot := &spgemm.Options{Algorithm: alg, Workers: workers}
		if _, err = spgemm.Multiply(a, a, oneshot); err != nil {
			return
		}
		d, allocs, bytes := timedAllocs(iters, func() {
			if _, e := spgemm.Multiply(a, a, oneshot); e != nil {
				err = e
			}
		})
		if err != nil {
			return
		}
		out = append(out, reuseVariant{alg.String(), "oneshot", d.Nanoseconds(), mflops(flop, d), allocs, bytes})

		// Context: reusable state, on a dedicated persistent pool.
		ctx := spgemm.NewContext()
		ctx.Pool = sched.NewPool(workers)
		withCtx := &spgemm.Options{Algorithm: alg, Workers: workers, Context: ctx}
		if _, err = spgemm.Multiply(a, a, withCtx); err != nil {
			ctx.Pool.Close()
			return
		}
		d, allocs, bytes = timedAllocs(iters, func() {
			if _, e := spgemm.Multiply(a, a, withCtx); e != nil {
				err = e
			}
		})
		ctx.Pool.Close()
		if err != nil {
			return
		}
		out = append(out, reuseVariant{alg.String(), "context", d.Nanoseconds(), mflops(flop, d), allocs, bytes})

		// Plan: symbolic phase cached, numeric-only re-execution.
		pctx := spgemm.NewContext()
		pctx.Pool = sched.NewPool(workers)
		var plan *spgemm.Plan
		plan, err = spgemm.NewPlan(a, a, &spgemm.Options{Algorithm: alg, Workers: workers, Context: pctx})
		if err != nil {
			pctx.Pool.Close()
			return
		}
		// Warm-up is two executions: the second builds the plan's replay
		// map, so the timed ones are the steady state a cached Plan serves.
		for warm := 0; warm < 2; warm++ {
			if _, err = plan.Execute(); err != nil {
				pctx.Pool.Close()
				return
			}
		}
		d, allocs, bytes = timedAllocs(iters, func() {
			if _, e := plan.Execute(); e != nil {
				err = e
			}
		})
		pctx.Pool.Close()
		if err != nil {
			return
		}
		out = append(out, reuseVariant{alg.String(), "plan", d.Nanoseconds(), mflops(flop, d), allocs, bytes})
	}
	return
}

// runReuse renders the reuse experiment as a table.
func runReuse(cfg Config, w io.Writer) error {
	scale, flop, rows, err := measureReuse(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ER scale %d, edge factor 16, A², flop=%d, iters=%d\n", scale, flop, cfg.reps())
	t := newTable("alg", "variant", "ms/iter", "MFLOPS", "allocs/iter", "KiB/iter")
	for _, r := range rows {
		t.add(r.Alg, r.Variant,
			f2(float64(r.NsPerOp)/1e6), f1(r.MFLOPS),
			fmt.Sprintf("%d", r.Allocs), f1(float64(r.Bytes)/1024))
	}
	t.write(w, cfg.CSV)
	fmt.Fprintln(w, "# expectation: context cuts allocs/iter to the output matrix plus pool dispatch;")
	fmt.Fprintln(w, "# plan additionally skips partition+symbolic, so ms/iter drops toward the numeric phase")
	return nil
}
