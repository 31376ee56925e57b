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
	for _, alg := range []Algorithm{AlgHash, AlgHeap} {
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
		if _, err := Multiply(other, other, &Options{Algorithm: AlgHeap, Workers: 3, Context: ctx}); err != nil {
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
	if cum := ctx.CumulativeStats(); cum == nil || cum.TotalWorker().Rows != int64(a.Rows) {
		t.Fatalf("stats accumulated into the wrong context: %+v", cum)
	}
}

// TestPlanConcurrentExecuteIn pins the contract the multiply server's plan
// cache relies on: one shared Plan, concurrently executed through distinct
// Contexts, is race-free (run under -race) and every result is Multiply's.
// The map-less row has no replay map, so every execution of every goroutine
// runs the kernel on its own Context.
func TestPlanConcurrentExecuteIn(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := matrix.Random(150, 130, 0.05, rng)
	b := matrix.Random(130, 140, 0.05, rng)
	for _, tc := range []struct {
		name  string
		opt   Options
		noMap bool
	}{
		{"hash", Options{Algorithm: AlgHash, Workers: 2}, false},
		{"hash-nomap", Options{Algorithm: AlgHash, Workers: 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.noMap {
				defer shardedAutoBytes.Store(shardedAutoBytes.Swap(1))
			}
			plan, err := NewPlan(a, b, &tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if tc.noMap && plan.mapBytes != 0 {
				t.Fatalf("want a map-less plan, got mapBytes %d", plan.mapBytes)
			}
			want, err := Multiply(a, b, &tc.opt)
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
		})
	}
}

// TestPlanAndMultiplyReportSameWork: a Plan is Multiply's two phases held
// apart, so for every two-phase geometry the inspector's counters plus the
// first execution's add up to the one-shot call's. The second execution
// never repartitions and spends symbolic time exactly when it builds the
// replay map (every algorithm but Heap); from the third on an execution
// spends nothing on partition or symbolic, and either streams every product
// through the map — ReplayFlop == Flop, no accumulator touched — or, for
// Heap, none. A Heap Plan's inspector runs the symbolic pass the one-phase
// kernel has none of, so its build reports counting work (stamps or lookups)
// the one-shot call does not; rows, flop and heap pushes still agree.
func TestPlanAndMultiplyReportSameWork(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	sorted := gen.RMAT(8, 8, gen.G500Params, rng)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"hash", Options{Algorithm: AlgHash}},
		{"heap", Options{Algorithm: AlgHeap}},
		{"sharded", Options{Algorithm: AlgHash, ShardMemBudget: stripeBudget(sorted, sorted, 16)}},
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
				if tc.name == "sharded" && len(oneShot.Stripes) != 16 {
					t.Fatalf("%d stripes, want 16", len(oneShot.Stripes))
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
				got.Busy, want.Busy = 0, 0             // a wall time, not a count
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
				streams := tc.name != "heap"
				if planned.Phases[PhasePartition] != 0 || (planned.Phases[PhaseSymbolic] != 0) != streams {
					t.Errorf("second Execute spent partition=%v symbolic=%v; want none and the map build (%v)",
						planned.Phases[PhasePartition], planned.Phases[PhaseSymbolic], streams)
				}
				if second := planned.TotalWorker(); second.ReplayFlop != 0 || second.Flop != want.Flop {
					t.Errorf("second Execute reports %+v; want the kernel's %d flop", second, want.Flop)
				}
				if _, err := plan.Execute(); err != nil {
					t.Fatal(err)
				}
				if planned.Phases[PhasePartition] != 0 || planned.Phases[PhaseSymbolic] != 0 {
					t.Errorf("third Execute spent partition=%v symbolic=%v", planned.Phases[PhasePartition], planned.Phases[PhaseSymbolic])
				}
				third := planned.TotalWorker()
				replayed := WorkerStats{Rows: want.Rows, Flop: want.Flop, ReplayFlop: want.Flop}
				if third.HashProbes, third.Busy = 0, 0; streams && third != replayed {
					t.Errorf("third Execute reports %+v, want a streamed replay %+v", third, replayed)
				} else if !streams && (third.ReplayFlop != 0 || third.HeapPushes != want.HeapPushes) {
					t.Errorf("third Execute of a Heap plan reports %+v, want its kernel's work", third)
				}
			})
		}
	}
}

// TestPlanReplayMapBuiltOnce is the -race leg of the replay map: eight
// goroutines with distinct Contexts hit a fresh shared Plan at once, so the
// first two executions, the map build and the first streamed replays all
// overlap. Exactly one map is built and published, and every product —
// kernel or streamed — is bit-identical to Multiply.
func TestPlanReplayMapBuiltOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	a := gen.RMAT(8, 8, gen.G500Params, rng)
	for _, leg := range []struct {
		alg     Algorithm
		stripes int
	}{{AlgHash, 0}, {AlgHash, 4}} {
		alg := leg.alg
		opt := &Options{Algorithm: alg, Workers: 2, ShardMemBudget: stripeBudget(a, a, leg.stripes)}
		want, err := Multiply(a, a, opt)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(a, a, opt)
		if err != nil {
			t.Fatal(err)
		}
		maps, bytes := mReplayMaps.Value(), mReplayMapBytes.Value()
		const goroutines, rounds = 8, 4
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := NewContext()
				<-start
				for round := 0; round < rounds; round++ {
					got, err := plan.ExecuteIn(ctx, &ExecStats{})
					if err != nil {
						t.Error(err)
						return
					}
					if !bitIdentical(got, want) {
						t.Errorf("%v: round %d differs from Multiply", alg, round)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := mReplayMaps.Value() - maps; n != 1 {
			t.Errorf("%v: %d replay maps built, want exactly 1", alg, n)
		}
		built := 4 * int64(len(plan.replay.Load().cols))
		for _, dst := range plan.replay.Load().dst {
			built += 4 * int64(len(dst))
		}
		if n := mReplayMapBytes.Value() - bytes; n != plan.mapBytes || n != built {
			t.Errorf("%v: %d map bytes counted, plan says %d, the map holds %d", alg, n, plan.mapBytes, built)
		}
		// A goroutine may finish all its rounds before the builder publishes;
		// the execution after the join cannot miss the map.
		st := &ExecStats{}
		if _, err := plan.ExecuteIn(nil, st); err != nil {
			t.Fatal(err)
		}
		if tw := st.TotalWorker(); tw.ReplayFlop != tw.Flop || tw.Flop == 0 {
			t.Errorf("%v: execution after the build streamed %d of %d products", alg, tw.ReplayFlop, tw.Flop)
		}
	}
}

// TestPlanReplayMapBound: a plan whose map would exceed shardedAutoBytes —
// lowered here to one byte under it — never builds one, keeps replaying
// through its kernel, and does not count the map in Bytes.
func TestPlanReplayMapBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := gen.ER(7, 6, rng)
	opt := &Options{Algorithm: AlgHash, Workers: 2}
	within, err := NewPlan(a, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if within.mapBytes == 0 || within.Bytes() <= within.mapBytes {
		t.Fatalf("plan within the bound: mapBytes %d of Bytes %d", within.mapBytes, within.Bytes())
	}
	defer shardedAutoBytes.Store(shardedAutoBytes.Swap(within.mapBytes - 1))
	over, err := NewPlan(a, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if over.mapBytes != 0 || over.Bytes() != within.Bytes()-within.mapBytes {
		t.Fatalf("plan over the bound: mapBytes %d, Bytes %d; want 0 and the inspection's %d",
			over.mapBytes, over.Bytes(), within.Bytes()-within.mapBytes)
	}
	want, err := Multiply(a, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	maps := mReplayMaps.Value()
	var st ExecStats
	for round := 0; round < 4; round++ {
		got, err := over.ExecuteIn(nil, &st)
		if err != nil {
			t.Fatal(err)
		}
		if tw := st.TotalWorker(); !bitIdentical(got, want) || tw.ReplayFlop != 0 || tw.HashLookups+tw.DirectFlop+tw.DenseFlop != tw.Flop {
			t.Fatalf("round %d: want the kernel's product and counters, got %+v", round, tw)
		}
	}
	if n := mReplayMaps.Value() - maps; n != 0 || over.replay.Load() != nil {
		t.Fatalf("%d replay maps built over the bound", n)
	}
}

// TestPlanRecycleConcurrent is the multiply server's steady state under
// -race: goroutines share one Plan, each executes it on a Context of its own
// and donates every product back once it has compared it. A donation is
// private to its Context, so no product may ever show another's writes.
func TestPlanRecycleConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := gen.RMAT(8, 8, gen.G500Params, rng)
	opt := &Options{Algorithm: AlgHash, Workers: 2}
	want, err := Multiply(a, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(a, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := NewContext()
			for round := 0; round < 6; round++ {
				got, err := plan.ExecuteIn(ctx, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !bitIdentical(got, want) {
					t.Errorf("round %d differs from Multiply", round)
				}
				ctx.Recycle(got)
			}
		}()
	}
	wg.Wait()
}
