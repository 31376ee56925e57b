package spgemm

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// The acceptance workload of the reusable-execution-context work: A² on an
// Erdős–Rényi scale-14 matrix (2^14 rows, edge factor 16), the paper's
// uniform synthetic family at a size where per-call allocation is clearly
// visible. Run with -benchmem: the context and plan variants must sit at a
// small fraction (≥10× reduction) of the one-shot allocs/op, and the plan
// variant additionally skips partition+symbolic (see
// TestPlanExecuteSkipsInspection for the ExecStats assertion). plan+recycle
// also hands each product back (Context.Recycle), which takes C out of B/op.
//
// The worker count is pinned rather than taken from GOMAXPROCS so the
// allocation accounting is comparable across machines: one-shot allocations
// grow with the worker count (per-worker tables), reuse stays flat.

const reuseWorkers = 8

var reuseFixture struct {
	once sync.Once
	a    *matrix.CSR
}

func reuseMatrix(b *testing.B) *matrix.CSR {
	reuseFixture.once.Do(func() {
		rng := rand.New(rand.NewSource(20180618))
		reuseFixture.a = gen.ER(14, 16, rng)
	})
	return reuseFixture.a
}

func BenchmarkMultiplyReuse(b *testing.B) {
	a := reuseMatrix(b)
	const alg = AlgHash
	b.Run(alg.String(), func(b *testing.B) {
		b.Run("oneshot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Multiply(a, a, &Options{Algorithm: alg, Workers: reuseWorkers}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("context", func(b *testing.B) {
			// A dedicated persistent pool keeps every dispatch on a
			// parked goroutine (the default pool is sized to
			// GOMAXPROCS and overflow-spawns beyond that).
			ctx := NewContext()
			ctx.Pool = sched.NewPool(reuseWorkers)
			defer ctx.Pool.Close()
			opt := &Options{Algorithm: alg, Workers: reuseWorkers, Context: ctx}
			// Warm up outside the timer: steady state is the claim.
			if _, err := Multiply(a, a, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Multiply(a, a, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("plan", func(b *testing.B) {
			ctx := NewContext()
			ctx.Pool = sched.NewPool(reuseWorkers)
			defer ctx.Pool.Close()
			plan, err := NewPlan(a, a, &Options{Algorithm: alg, Workers: reuseWorkers, Context: ctx})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.Execute(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("plan+recycle", func(b *testing.B) {
			// plan with every product donated back before the next
			// execution: B/op drops by the size of C.
			ctx := NewContext()
			ctx.Pool = sched.NewPool(reuseWorkers)
			defer ctx.Pool.Close()
			plan, err := NewPlan(a, a, &Options{Algorithm: alg, Workers: reuseWorkers, Context: ctx})
			if err != nil {
				b.Fatal(err)
			}
			for warm := 0; warm < 2; warm++ {
				c, err := plan.Execute()
				if err != nil {
					b.Fatal(err)
				}
				ctx.Recycle(c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := plan.Execute()
				if err != nil {
					b.Fatal(err)
				}
				ctx.Recycle(c)
			}
		})
	})
}
