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
// Every leg runs sched.DefaultWorkers() workers, the size of the process-wide
// pool, so each region's dispatch goes to a parked goroutine and none falls
// back to a spawn. One-shot allocations grow with the worker count
// (per-worker tables), reuse stays flat: compare allocs/op across machines
// only at equal GOMAXPROCS.

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
	reuseWorkers := sched.DefaultWorkers()
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
			ctx := NewContext()
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
			plan, err := NewPlan(a, a, &Options{Algorithm: alg, Workers: reuseWorkers, Context: ctx})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.ExecuteIn(ctx, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.ExecuteIn(ctx, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("plan+recycle", func(b *testing.B) {
			// plan with every product donated back before the next
			// execution: B/op drops by the size of C.
			ctx := NewContext()
			plan, err := NewPlan(a, a, &Options{Algorithm: alg, Workers: reuseWorkers, Context: ctx})
			if err != nil {
				b.Fatal(err)
			}
			for warm := 0; warm < 2; warm++ {
				c, err := plan.ExecuteIn(ctx, nil)
				if err != nil {
					b.Fatal(err)
				}
				ctx.Recycle(c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := plan.ExecuteIn(ctx, nil)
				if err != nil {
					b.Fatal(err)
				}
				ctx.Recycle(c)
			}
		})
	})
}
