package spgemm

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/accum"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/mempool"
)

// These tests pin the steady-state allocation behavior the hot paths are
// built around: once scratch state has reached its high-water mark, the
// per-row and per-call numeric work must not touch the heap. A regression
// here is exactly the class of bug the hotalloc analyzer and the escape
// budget guard against at the source level; this is the runtime check.

// requireZeroAllocs runs f once to warm high-water marks, then asserts zero
// allocations per run.
func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // reach steady state
	if n := testing.AllocsPerRun(20, f); n != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", name, n)
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	t.Run("HashTableCycle", func(t *testing.T) {
		h := accum.NewHashTable(256)
		cols := make([]int32, 256)
		vals := make([]float64, 256)
		requireZeroAllocs(t, "hash upsert/extract", func() {
			h.Reset()
			for k := int32(0); k < 200; k++ {
				slot, fresh := h.Upsert(k * 7 % 251)
				if fresh {
					*slot = float64(k)
				} else {
					*slot += float64(k)
				}
			}
			h.ExtractSorted(cols, vals)
		})
	})

	// The generic instantiations must hit the same zero-alloc steady state
	// as the float64 alias: Upsert hands out a pointer into the table's
	// value array, so no boxing and no per-operation escapes.
	t.Run("HashTableCycleGenericF32", func(t *testing.T) {
		h := accum.NewHashTableG[float32](256)
		cols := make([]int32, 256)
		vals := make([]float32, 256)
		requireZeroAllocs(t, "generic hash upsert/extract", func() {
			h.Reset()
			for k := int32(0); k < 200; k++ {
				slot, fresh := h.Upsert(k * 7 % 251)
				if fresh {
					*slot = float32(k)
				} else {
					*slot += float32(k)
				}
			}
			h.ExtractSorted(cols, vals)
		})
	})

	t.Run("HashTableCycleGenericBool", func(t *testing.T) {
		h := accum.NewHashTableG[bool](256)
		cols := make([]int32, 256)
		vals := make([]bool, 256)
		requireZeroAllocs(t, "bool hash upsert/extract", func() {
			h.Reset()
			for k := int32(0); k < 200; k++ {
				slot, _ := h.Upsert(k * 7 % 251)
				*slot = true
			}
			h.ExtractSorted(cols, vals)
		})
	})

	t.Run("MergeHeapCycle", func(t *testing.T) {
		h := accum.NewMergeHeap(64)
		requireZeroAllocs(t, "heap push/pop", func() {
			h.Reset()
			for k := 0; k < 64; k++ {
				h.Push(int32(97-k), float64(k), 0, 1)
			}
			for h.Len() > 0 {
				h.PopMin()
			}
		})
	})

	t.Run("ScratchEnsureAtHighWater", func(t *testing.T) {
		var s mempool.Scratch
		requireZeroAllocs(t, "Ensure*", func() {
			s.EnsureInt32A(512)
			s.EnsureInt64A(512)
			s.EnsureFloat64(512)
		})
	})

	t.Run("AcquireReleaseCycle", func(t *testing.T) {
		// Warm the free list so the cycle recycles instead of allocating.
		warm := mempool.Acquire()
		warm.EnsureInt64A(1024)
		mempool.Release(warm)
		requireZeroAllocs(t, "Acquire/Release", func() {
			s := mempool.Acquire()
			buf := s.EnsureInt64A(1024)
			buf[0] = 1
			mempool.Release(s)
		})
	})

	t.Run("DisabledStatsPhaseTimer", func(t *testing.T) {
		// With Stats == nil the phase timer must cost nothing.
		pt := startPhases(nil, AlgHash, 1)
		requireZeroAllocs(t, "phaseTimer", func() {
			pt.tick(PhaseSymbolic)
			pt.tick(PhaseNumeric)
			pt.finish()
		})
	})
}

// TestContextReuseSteadyAllocs pins the per-call allocation count of a
// Context-reused Multiply: after warmup the only allocations left are the
// output matrix's three arrays plus the result header — per-row numeric
// state must come from the Context's cached tables (for Hash on this square,
// Cols <= flop, the SPA: the hash rows check it runs). The one-phase geometry is
// held to the same bound: one-shot Heap and a masked product fill upper-bound
// buffers that are the Context's, as is the mask's col→slot index (the masked
// row is pinned at the 6 it measures: three arrays and what the +recycle rows
// list), and a Heap Plan replay has no buffers at all. A Plan's streamed
// replay (hash/replay) is pinned at its 5: the map costs none per execution.
// The +recycle rows hand every product back (Context.Recycle) before the next
// call and are pinned at exactly the three arrays fewer — what is left is the
// result header, which the caller keeps, and one closure per parallel region
// (symbolic and numeric; a replay has only the second), which the pool's
// workers hold while they run — under 1 KiB together and none of it growing
// with the product. The inspection and the phase timer are the Context's.
func TestContextReuseSteadyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := gen.ER(8, 8, rng) // 256×256, ~8 nnz/row: real per-row numeric work
	for _, tc := range []struct {
		name    string
		alg     Algorithm
		mask    *matrix.CSR
		plan    bool
		recycle bool
		max     float64
	}{
		{"hash", AlgHash, nil, false, false, 16},
		{"hash+mask", AlgHash, a, false, false, 6},
		{"heap", AlgHeap, nil, false, false, 16},
		{"heap/plan", AlgHeap, nil, true, false, 16},
		{"hash/replay", AlgHash, nil, true, false, 5},
		{"hash+recycle", AlgHash, nil, false, true, 3},
		{"hash+mask+recycle", AlgHash, a, false, true, 3},
		{"hash/replay+recycle", AlgHash, nil, true, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := &Options{Algorithm: tc.alg, Mask: tc.mask, Workers: 1, Context: NewContext()}
			multiply := func() (*matrix.CSR, error) { return Multiply(a, a, opt) }
			if tc.plan {
				plan, err := NewPlan(a, a, opt)
				if err != nil {
					t.Fatal(err)
				}
				multiply = plan.Execute
			}
			run := func() {
				c, err := multiply()
				if err != nil {
					t.Fatal(err)
				}
				if tc.recycle {
					opt.Context.Recycle(c)
				}
			}
			run() // warm the context's tables and partitions
			run() // a Plan's second execution builds its replay map
			if tc.alg == AlgHash && tc.mask == nil && !tc.plan {
				// Cols <= flop: the steady state measured below is the SPA's,
				// every numeric product folded into the Context's dense arrays.
				var st ExecStats
				sopt := *opt
				sopt.Stats = &st
				if _, err := Multiply(a, a, &sopt); err != nil {
					t.Fatal(err)
				}
				if tw := st.TotalWorker(); tw.DenseFlop != tw.Flop || tw.HashLookups != 0 {
					t.Fatalf("numeric folded %d of %d products in the SPA (%d table lookups), want all (none)", tw.DenseFlop, tw.Flop, tw.HashLookups)
				}
			}
			allocs := testing.AllocsPerRun(10, run)
			// Output CSR: RowPtr + ColIdx + Val + header, plus minor
			// per-call bookkeeping. The bound is deliberately tight: the
			// seed measured 4-8 depending on algorithm; growth past 16
			// means per-row state stopped being reused.
			if allocs > tc.max {
				t.Errorf("Multiply with Context: %v allocs/op, want <= %v (output-only)", allocs, tc.max)
			}
			if tc.recycle {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 10; i++ {
					run()
				}
				runtime.ReadMemStats(&after)
				if perCall := (after.TotalAlloc - before.TotalAlloc) / 10; perCall >= 1<<10 {
					t.Errorf("Multiply with Context and Recycle: %d B/op, want < 1 KiB", perCall)
				}
			}
		})
	}
}
