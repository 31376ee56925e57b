package spgemm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

func TestPlanExecuteMatchesMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := matrix.Random(120, 100, 0.06, rng)
	b := matrix.Random(100, 110, 0.06, rng)
	for _, alg := range []Algorithm{AlgHash, AlgHashVec, AlgHeap} {
		for _, unsorted := range []bool{false, true} {
			opt := &Options{Algorithm: alg, Workers: 3, Unsorted: unsorted, Context: NewContext()}
			plan, err := NewPlan(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				got, err := plan.Execute()
				if err != nil {
					t.Fatalf("%v round %d: %v", alg, round, err)
				}
				want, err := Multiply(a, b, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !csrEqual(got, want) {
					t.Fatalf("%v unsorted=%v round %d: plan result differs from Multiply", alg, unsorted, round)
				}
				if plan.NNZ() != want.NNZ() {
					t.Fatalf("plan NNZ %d != %d", plan.NNZ(), want.NNZ())
				}
				// Mutate values in place: same structure, new numbers. The
				// plan must keep applying, the outputs must keep matching.
				for i := range a.Val {
					a.Val[i] *= 0.75
				}
				for i := range b.Val {
					b.Val[i] *= 1.5
				}
			}
		}
	}
}

func TestPlanStaleOnStructureChange(t *testing.T) {
	for _, alg := range []Algorithm{AlgHash, AlgHeap} {
		rng := rand.New(rand.NewSource(22))
		a := matrix.Random(60, 60, 0.08, rng)
		b := matrix.Random(60, 60, 0.08, rng)
		plan, err := NewPlan(a, b, &Options{Algorithm: alg, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Execute(); err != nil {
			t.Fatal(err)
		}
		// Move one stored entry of B to a different column: identical nnz and
		// row pointers, different pattern — exactly the case a cheap dims+nnz
		// check would miss.
		if len(b.ColIdx) == 0 {
			t.Skip("empty B")
		}
		old := b.ColIdx[0]
		b.ColIdx[0] = (old + 1) % int32(b.Cols)
		if b.ColIdx[0] == old {
			t.Skip("cannot perturb single-column matrix")
		}
		if _, err := plan.Execute(); !errors.Is(err, ErrPlanStale) {
			t.Fatalf("%v: structure change not detected: err = %v", alg, err)
		}
	}
}

func TestPlanInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := matrix.Random(40, 40, 0.1, rng)
	plan, err := NewPlan(a, a, &Options{Algorithm: AlgHash})
	if err != nil {
		t.Fatal(err)
	}
	plan.Invalidate()
	if _, err := plan.Execute(); !errors.Is(err, ErrPlanStale) {
		t.Fatalf("invalidated plan executed: err = %v", err)
	}
}

func TestPlanRejectsUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := matrix.Random(30, 30, 0.1, rng)
	// Every kernel has a Plan, under Multiply's own conditions: Heap needs
	// sorted rows in B, and an out-of-range Algorithm names no kernel.
	if _, err := NewPlan(a, a, &Options{Algorithm: AlgHeap}); err != nil {
		t.Fatalf("heap plan rejected: %v", err)
	}
	if _, err := NewPlan(a, gen.Unsorted(a, rng), &Options{Algorithm: AlgHeap}); err == nil {
		t.Fatal("heap plan on unsorted B accepted")
	}
	if _, err := NewPlan(a, a, &Options{Algorithm: Algorithm(NumAlgorithms)}); err == nil {
		t.Fatal("plan for an unknown algorithm accepted")
	}
	if _, err := NewPlan(a, a, &Options{Algorithm: AlgHash, Mask: a}); err == nil {
		t.Fatal("masked plan accepted")
	}
	bad := matrix.Random(20, 30, 0.1, rng) // 30x30 · 20x30
	if _, err := NewPlan(a, bad, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestPlanExecuteSkipsInspection checks the acceptance criterion directly:
// on re-execution the partition and symbolic phases cost zero (they do not
// run), while the numeric phase does.
func TestPlanExecuteSkipsInspection(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := matrix.Random(300, 300, 0.04, rng)
	var stats ExecStats
	plan, err := NewPlan(a, a, &Options{Algorithm: AlgHash, Workers: 2, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Phases[PhaseSymbolic] == 0 {
		t.Fatal("inspector recorded no symbolic time")
	}
	if _, err := plan.Execute(); err != nil {
		t.Fatal(err)
	}
	if stats.Phases[PhasePartition] != 0 || stats.Phases[PhaseSymbolic] != 0 {
		t.Fatalf("execute re-ran inspection: partition=%v symbolic=%v",
			stats.Phases[PhasePartition], stats.Phases[PhaseSymbolic])
	}
	if stats.Phases[PhaseNumeric] == 0 {
		t.Fatal("execute recorded no numeric time")
	}
}

// TestPlanSharedContextInterleaved interleaves plan executions with ordinary
// Multiply calls on the same Context: the plan's cached partition and row
// pointers must be immune to the context's buffers being overwritten.
func TestPlanSharedContextInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := matrix.Random(90, 90, 0.06, rng)
	other := matrix.Random(400, 400, 0.02, rng)
	ctx := NewContext()
	opt := &Options{Algorithm: AlgHash, Workers: 2, Context: ctx}
	plan, err := NewPlan(a, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Multiply(a, a, &Options{Algorithm: AlgHash, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		// Clobber the context's bookkeeping with a differently-shaped product.
		if _, err := Multiply(other, other, &Options{Algorithm: AlgHashVec, Workers: 3, Context: ctx}); err != nil {
			t.Fatal(err)
		}
		got, err := plan.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if !csrEqual(got, want) {
			t.Fatalf("round %d: interleaved plan result differs", round)
		}
	}
}

func TestPlanExecuteInMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := matrix.Random(90, 80, 0.07, rng)
	b := matrix.Random(80, 70, 0.07, rng)
	plan, err := NewPlan(a, b, &Options{Algorithm: AlgHash, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	// A nil context is a fresh transient one; a caller context is reused.
	got, err := plan.ExecuteIn(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(got, want) {
		t.Fatal("ExecuteIn(nil, nil) differs from Execute")
	}
	ctx := NewContext()
	stats := &ExecStats{}
	got, err = plan.ExecuteIn(ctx, stats)
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(got, want) {
		t.Fatal("ExecuteIn(ctx, stats) differs from Execute")
	}
	if stats.Algorithm != AlgHash || stats.Total <= 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if ctx.CumulativeCalls() != 1 {
		t.Fatalf("stats accumulated into the wrong context: %d calls", ctx.CumulativeCalls())
	}
}

// TestPlanConcurrentExecuteIn pins the contract the multiply server's plan
// cache relies on: one shared Plan, concurrently executed through distinct
// Contexts, is race-free (run under -race) and every result is identical.
func TestPlanConcurrentExecuteIn(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := matrix.Random(150, 130, 0.05, rng)
	b := matrix.Random(130, 140, 0.05, rng)
	plan, err := NewPlan(a, b, &Options{Algorithm: AlgHashVec, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	results := make([]*matrix.CSR, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := NewContext()
			for round := 0; round < 4; round++ {
				results[g], errs[g] = plan.ExecuteIn(ctx, &ExecStats{})
				if errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !csrEqual(results[g], want) {
			t.Fatalf("goroutine %d produced a different product", g)
		}
	}
}

// TestPlanAndMultiplyReportSameWork: a Plan is Multiply's two phases held
// apart, so for every two-phase geometry the inspector's counters plus the
// first execution's add up to the one-shot call's, and later executions
// spend nothing on partition or symbolic. A Heap Plan's inspector runs the
// symbolic pass the one-phase kernel has none of, so its build reports
// counting work (stamps or lookups) the one-shot call does not; rows, flop
// and heap pushes still agree.
func TestPlanAndMultiplyReportSameWork(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	sorted := gen.RMAT(8, 8, gen.G500Params, rng)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"hash", Options{Algorithm: AlgHash}},
		{"hashvec", Options{Algorithm: AlgHashVec}},
		{"heap", Options{Algorithm: AlgHeap}},
		{"tiled", Options{Algorithm: AlgTiled, TileCols: 64, TileHeavyFlop: 16}},
		{"sharded", Options{Algorithm: AlgSharded, ShardStripes: 16, TileCols: 64, TileHeavyFlop: 255}},
	} {
		for _, unsorted := range []bool{false, true} {
			a := sorted
			if unsorted {
				if tc.name == "heap" {
					continue // sorted inputs only
				}
				a = gen.Unsorted(sorted, rng)
			}
			t.Run(fmt.Sprintf("%s/unsorted=%v", tc.name, unsorted), func(t *testing.T) {
				var oneShot, planned ExecStats
				opt := tc.opt
				opt.Workers, opt.Unsorted, opt.Stats = 3, unsorted, &oneShot
				if _, err := Multiply(a, a, &opt); err != nil {
					t.Fatal(err)
				}
				want := oneShot.TotalWorker()
				switch tc.name {
				case "tiled":
					if want.L2Overflows == 0 {
						t.Fatal("forced tile geometry routed no heavy units")
					}
				case "sharded":
					wide := 0
					for _, s := range oneShot.Stripes {
						if s.ColSplit {
							wide++
						}
					}
					if wide == 0 || wide == len(oneShot.Stripes) {
						t.Fatalf("%d of %d stripes column-split; want both kinds", wide, len(oneShot.Stripes))
					}
				}

				opt.Stats = &planned
				plan, err := NewPlan(a, a, &opt)
				if err != nil {
					t.Fatal(err)
				}
				sum := planned.Clone()
				if _, err := plan.Execute(); err != nil {
					t.Fatal(err)
				}
				sum.Add(&planned)
				got := sum.TotalWorker()
				got.HashProbes, want.HashProbes = 0, 0 // depends on table capacity, not on the work
				if tc.name == "heap" {
					if got.StampMarks+got.HashLookups == 0 || oneShot.Phases[PhaseSymbolic] != 0 {
						t.Errorf("heap: plan build counted %d+%d columns, one-shot spent %v on symbolic; want some and none",
							got.StampMarks, got.HashLookups, oneShot.Phases[PhaseSymbolic])
					}
					got.StampMarks, got.HashLookups = 0, 0
				}
				if got != want {
					t.Errorf("NewPlan + Execute report %+v, Multiply reports %+v", got, want)
				}
				if _, err := plan.Execute(); err != nil {
					t.Fatal(err)
				}
				if planned.Phases[PhasePartition] != 0 || planned.Phases[PhaseSymbolic] != 0 {
					t.Errorf("second Execute spent partition=%v symbolic=%v", planned.Phases[PhasePartition], planned.Phases[PhaseSymbolic])
				}
			})
		}
	}
}
