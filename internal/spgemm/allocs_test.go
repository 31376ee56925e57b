package spgemm

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/accum"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/testalloc"
)

// These tests pin the steady-state allocation behavior the hot paths are
// built around: once scratch state has reached its high-water mark, the
// per-row and per-call numeric work must not touch the heap. A regression
// here is exactly the class of bug the [calls] and [escapes] sections of
// lint/budget.txt guard against in the compiled code; this is the runtime
// check.

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
// held to the same bound: one-shot Heap fills upper-bound buffers that are the
// Context's, and a Heap Plan replay has no buffers at all. The pattern count
// (hash+mask) stores no product: its bitmaps are the Context's, and the row
// is pinned at the 2 it measures, the closure of its one parallel region and
// the total that closure adds into. A Plan's streamed
// replay (hash/replay) is pinned at its 5: the map costs none per execution.
// The +recycle rows hand every product back (Context.Recycle) before the next
// call and are pinned at exactly the three arrays fewer — what is left is the
// result header, which the caller keeps, and one closure per parallel region
// (symbolic and numeric; a replay has only the second), which the pool's
// workers hold while they run — under 1 KiB together and none of it growing
// with the product. The inspection and the phase timer are the Context's.
// A product into one column (hash/column) takes the one-column route: one
// region, whose closure is all it allocates besides the output, and with
// +recycle the result header and that closure alone.
func TestContextReuseSteadyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := gen.ER(8, 8, rng) // 256×256, ~8 nnz/row: real per-row numeric work
	column := matrix.NewCOO(a.Cols, 1)
	for k := 0; k < a.Cols; k += 2 {
		column.Append(int32(k), 0, rng.NormFloat64())
	}
	col := column.ToCSR()
	for _, tc := range []struct {
		name    string
		alg     Algorithm
		mask    bool
		plan    bool
		recycle bool
		max     float64
	}{
		{"hash", AlgHash, false, false, false, 16},
		{"hash+mask", AlgHash, true, false, false, 2},
		{"heap", AlgHeap, false, false, false, 16},
		{"heap/plan", AlgHeap, false, true, false, 16},
		{"hash/replay", AlgHash, false, true, false, 5},
		{"hash+recycle", AlgHash, false, false, true, 3},
		{"hash/replay+recycle", AlgHash, false, true, true, 2},
		{"hash/column", AlgHash, false, false, false, 5},
		{"hash/column+recycle", AlgHash, false, false, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := &Options{Algorithm: tc.alg, Workers: 1, Context: NewContext()}
			multiply := func() (*matrix.CSR, error) { return Multiply(a, a, opt) }
			switch {
			case strings.HasPrefix(tc.name, "hash/column"):
				multiply = func() (*matrix.CSR, error) { return Multiply(a, col, opt) }
			case tc.mask:
				multiply = func() (*matrix.CSR, error) {
					_, err := MaskedCount(a, a, a, opt)
					return nil, err
				}
			case tc.plan:
				plan, err := NewPlan(a, a, opt)
				if err != nil {
					t.Fatal(err)
				}
				multiply = func() (*matrix.CSR, error) { return plan.ExecuteIn(opt.Context, nil) }
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
			if tc.alg == AlgHash && !tc.mask && !tc.plan && !strings.HasPrefix(tc.name, "hash/column") {
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
				if perCall := testalloc.Bytes(run); perCall >= 1<<10 {
					t.Errorf("Multiply with Context and Recycle: %d B/op, want < 1 KiB", perCall)
				}
			}
		})
	}
}
