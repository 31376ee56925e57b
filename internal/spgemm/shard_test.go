package spgemm

import (
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// stripeBudget is the ShardMemBudget that cuts a·b into n stripes: 0 (the
// default budget, the product's own cut) for n = 0, 1 (one stripe per row)
// for n at or past a's rows. Between, the count is n wherever the output
// bound, flop·(4 + sizeof V) bytes, is at least n·(n−1); shardStripeCount
// still cuts at least one stripe per worker.
func stripeBudget[V semiring.Value](a, b *matrix.CSRG[V], n int) int64 {
	if n <= 0 {
		return 0
	}
	if n >= a.Rows {
		return 1
	}
	var zero V
	flop, _ := matrix.Flop(a, b)
	est := flop * int64(4+unsafe.Sizeof(zero))
	return max(1, (est+int64(n)-1)/int64(n))
}

// bitIdentical reports whether two products are byte-for-byte the same
// (structure, values, sortedness flag).
func bitIdentical(a, b *matrix.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.Sorted != b.Sorted || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// TestShardedBitIdenticalToHash is the stripe loop's acceptance criterion:
// sorted Hash output cut into budget stripes must be bit-identical to Hash's
// one stripe per worker on the same inputs, across stripe counts (including
// auto) and worker counts. The typed-nil-sink rows (TestShardedTypedNilSink,
// as rows here) pin that a nil *SpillSink is the nil sink: when
// Options.ShardSink was an interface, one compared unequal to nil and was
// dereferenced in Bind.
func TestShardedBitIdenticalToHash(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	inputs := []struct {
		name string
		a, b *matrix.CSR
	}{
		{"g500", gen.RMAT(9, 8, gen.G500Params, rng), gen.RMAT(9, 8, gen.G500Params, rng)},
		{"er", gen.ER(8, 6, rng), gen.ER(8, 6, rng)},
		{"tallskinny", gen.RMAT(8, 8, gen.G500Params, rng), matrix.Random(1<<8, 5, 0.4, rng)},
		{"empty", matrix.NewCSR(17, 13), matrix.NewCSR(13, 9)},
	}
	for _, in := range inputs {
		want, err := Multiply(in.a, in.b, &Options{Algorithm: AlgHash})
		if err != nil {
			t.Fatalf("%s: hash: %v", in.name, err)
		}
		for _, stripes := range []int{0, 1, 3, 16} {
			for _, workers := range []int{1, 4} {
				for _, variant := range []string{"plain", "typed-nil sink"} {
					opt := &Options{Algorithm: AlgHash, Workers: workers, ShardMemBudget: stripeBudget(in.a, in.b, stripes)}
					if variant == "typed-nil sink" {
						opt.ShardSink = (*SpillSink[float64])(nil)
					}
					got, err := Multiply(in.a, in.b, opt)
					if err != nil {
						t.Fatalf("%s stripes=%d workers=%d %s: %v", in.name, stripes, workers, variant, err)
					}
					if !bitIdentical(want, got) {
						t.Errorf("%s stripes=%d workers=%d %s: striped product differs from hash", in.name, stripes, workers, variant)
					}
				}
			}
		}
	}
}

// TestShardedUnsortedEquivalent: with unsorted output only the per-row entry
// sets are guaranteed (hash iteration order is capacity-dependent and stripe
// tables size independently), so compare after canonicalizing.
func TestShardedUnsortedEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := gen.RMAT(8, 8, gen.G500Params, rng)
	b := gen.RMAT(8, 8, gen.G500Params, rng)
	want, err := Multiply(a, b, &Options{Algorithm: AlgHash, Unsorted: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Multiply(a, b, &Options{Algorithm: AlgHash, Unsorted: true, ShardMemBudget: stripeBudget(a, b, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Sorted {
		t.Error("unsorted request produced Sorted output flag")
	}
	ws, gs := want.Clone(), got.Clone()
	ws.SortRows()
	gs.SortRows()
	ws.Sorted, gs.Sorted = true, true
	if !bitIdentical(ws, gs) {
		t.Error("striped unsorted entry sets differ from hash")
	}
}

// TestShardStripeCountHugeDimensions is the int64-overflow regression for
// the stripe cutter: synthetic flop totals and dimensions past any 32-bit
// intermediate (a scale-20+ product) must produce sane stripe counts, and
// saturation rather than wraparound at the extreme.
func TestShardStripeCountHugeDimensions(t *testing.T) {
	const budget = int64(256) << 20
	// Scale-22-ish: 2^40 flop over 2^22 rows. With 12 bytes per upper-bound
	// entry the byte estimate (~1.3e13) needs ~49k stripes; a 32-bit wrap
	// would collapse this to the worker floor.
	n := shardStripeCount(1<<40, 1<<22, 64, 8, budget)
	if n < 1<<15 || n > 1<<22 {
		t.Errorf("scale-22 stripe count = %d, want ~49k", n)
	}
	// MaxInt64 flop saturates instead of wrapping negative.
	if n := shardStripeCount(math.MaxInt64, 1<<22, 64, 8, budget); n != 1<<22 {
		t.Errorf("saturated count = %d, want row cap %d", n, 1<<22)
	}
	// Negative flop (corrupt header) clamps to the worker floor, never panics.
	if n := shardStripeCount(-5, 1000, 8, 8, budget); n != 8 {
		t.Errorf("negative-flop count = %d, want worker floor 8", n)
	}
	// Zero budget takes the default; tiny products stay at the floor.
	if n := shardStripeCount(1000, 1000, 4, 8, 0); n != 4 {
		t.Errorf("default-budget count = %d, want 4", n)
	}
	// Workers above rows: capped at one stripe per row.
	if n := shardStripeCount(1000, 3, 8, 8, budget); n != 3 {
		t.Errorf("row-capped count = %d, want 3", n)
	}
	// No rows at all.
	if n := shardStripeCount(0, 0, 8, 8, budget); n != 1 {
		t.Errorf("empty count = %d, want 1", n)
	}
	// capBound with a near-MaxInt32 column count must stay int64-clean.
	if got := capBound(1<<40, math.MaxInt32); got != math.MaxInt32 {
		t.Errorf("capBound(2^40, MaxInt32) = %d", got)
	}
}

// TestSpillSinkShardedMatchesHash runs the out-of-core path at toy scale: a
// resident budget far below the output size forces stripes to queue for
// admission, and the mmap-backed result must still match AlgHash exactly.
func TestSpillSinkShardedMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := gen.RMAT(9, 8, gen.G500Params, rng)
	b := gen.RMAT(9, 8, gen.G500Params, rng)
	want, err := Multiply(a, b, &Options{Algorithm: AlgHash})
	if err != nil {
		t.Fatal(err)
	}
	outBytes := want.NNZ() * 12
	budget := outBytes / 4
	if budget < 64 {
		budget = 64
	}
	sink := NewSpillSink[float64](t.TempDir(), budget)
	got, err := Multiply(a, b, &Options{Algorithm: AlgHash, ShardMemBudget: stripeBudget(a, b, 16), ShardSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(want, got) {
		t.Error("spilled product differs from hash")
	}
	if peak := sink.PeakResident(); peak > budget {
		t.Errorf("peak resident %d exceeds budget %d", peak, budget)
	}
	if sink.SpilledBytes() < outBytes {
		t.Errorf("spilled %d bytes, want >= %d", sink.SpilledBytes(), outBytes)
	}
	path := sink.f.Name()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spill file missing before Close: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("spill file survives Close")
	}
	if err := sink.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestSpillSinkSingleUse: a sink serves exactly one multiply.
func TestSpillSinkSingleUse(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a, b := matrix.Random(20, 20, 0.2, rng), matrix.Random(20, 20, 0.2, rng)
	sink := NewSpillSink[float64](t.TempDir(), 1<<20)
	defer sink.Close()
	if _, err := Multiply(a, b, &Options{Algorithm: AlgHash, ShardSink: sink}); err != nil {
		t.Fatal(err)
	}
	if _, err := Multiply(a, b, &Options{Algorithm: AlgHash, ShardSink: sink}); err == nil {
		t.Error("second multiply through one SpillSink succeeded")
	}
}

// TestShardedPlanReplay: plans of a striped product replay numeric-only and
// stay bit-identical to one-shot Multiply across value updates; concurrent
// ExecuteIn on one shared plan with distinct contexts is the server's
// plan-cache contract.
func TestShardedPlanReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := gen.RMAT(8, 8, gen.G500Params, rng)
	b := gen.RMAT(8, 8, gen.G500Params, rng)
	opt := &Options{Algorithm: AlgHash, ShardMemBudget: stripeBudget(a, b, 6)}
	plan, err := NewPlan(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		want, err := Multiply(a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.ExecuteIn(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(want, got) {
			t.Fatalf("round %d: plan execute differs from multiply", round)
		}
		for i := range b.Val {
			b.Val[i] *= 0.5
		}
	}

	var wg sync.WaitGroup
	results := make([]*matrix.CSR, 4)
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = plan.ExecuteIn(NewContext(), nil)
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if errs[g] != nil {
			t.Fatalf("concurrent ExecuteIn %d: %v", g, errs[g])
		}
		if !bitIdentical(results[0], results[g]) {
			t.Fatalf("concurrent ExecuteIn %d differs", g)
		}
	}

	// Structural change must surface staleness.
	if a.NNZ() > 0 {
		a.ColIdx[0] ^= 1
		if _, err := plan.ExecuteIn(nil, nil); err != ErrPlanStale {
			t.Fatalf("structural change: got %v, want ErrPlanStale", err)
		}
	}
}

// TestShardedPlanRejectsSpillSink: plans are reuse-oriented; spilled
// products are single-use.
func TestShardedPlanRejectsSpillSink(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a, b := matrix.Random(10, 10, 0.3, rng), matrix.Random(10, 10, 0.3, rng)
	sink := NewSpillSink[float64](t.TempDir(), 1<<20)
	defer sink.Close()
	if _, err := NewPlan(a, b, &Options{Algorithm: AlgHash, ShardSink: sink}); err == nil {
		t.Error("NewPlan accepted a ShardSink")
	}
}

// TestShardedStripeStats: per-stripe counters cover every output row and
// entry, and a product assembled by a sink reports the assemble phase the
// in-place one has none of.
func TestShardedStripeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := gen.RMAT(8, 8, gen.G500Params, rng)
	b := gen.RMAT(8, 8, gen.G500Params, rng)
	var st ExecStats
	c, err := Multiply(a, b, &Options{Algorithm: AlgHash, Workers: 1, ShardMemBudget: stripeBudget(a, b, 5), Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Stripes) != 5 {
		t.Fatalf("%d stripe stats recorded, want 5", len(st.Stripes))
	}
	var nnz, flop int64
	prevHi := 0
	for _, s := range st.Stripes {
		if s.Lo != prevHi {
			t.Fatalf("stripe gap: lo=%d after hi=%d", s.Lo, prevHi)
		}
		prevHi = s.Hi
		nnz += s.Nnz
		flop += s.Flop
		if s.Spilled {
			t.Error("in-RAM sink reported spilled stripes")
		}
	}
	if prevHi != a.Rows {
		t.Fatalf("stripes cover %d rows, want %d", prevHi, a.Rows)
	}
	if nnz != c.NNZ() {
		t.Errorf("stripe nnz sum %d, want %d", nnz, c.NNZ())
	}
	if tw := st.TotalWorker(); tw.Flop != flop {
		t.Errorf("worker flop %d != stripe flop %d", tw.Flop, flop)
	}
	if st.Phases[PhaseAssemble] != 0 {
		t.Error("in-place striped run recorded an assemble phase")
	}
	if st.PhaseSum() > st.Total {
		t.Errorf("PhaseSum %v exceeds Total %v", st.PhaseSum(), st.Total)
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}

	// Through a sink the same stripes report as spilled, and assembling
	// them is a phase.
	sink := NewSpillSink[float64](t.TempDir(), 1<<20)
	defer sink.Close()
	if _, err := Multiply(a, b, &Options{Algorithm: AlgHash, Workers: 1, ShardMemBudget: stripeBudget(a, b, 5), ShardSink: sink, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if len(st.Stripes) != 5 || !st.Stripes[0].Spilled {
		t.Errorf("spilled run recorded stripes %+v", st.Stripes)
	}
	if st.Phases[PhaseAssemble] <= 0 {
		t.Error("spilled run recorded no assemble phase")
	}

	// Stats reset on reuse: a Heap call, one-phase, through the same
	// ExecStats must clear the stripe breakdown.
	if _, err := Multiply(a, b, &Options{Algorithm: AlgHeap, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if len(st.Stripes) != 0 {
		t.Error("stale stripe stats survive reset")
	}
}

// TestShardedContextReuseSteady: repeated striped multiplies through one
// Context must keep working as buffers are reused and stripe geometry
// changes shape between calls.
func TestShardedContextReuseSteady(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	ctx := NewContext()
	for round := 0; round < 4; round++ {
		a, b := randPair(rng, 60, 0.15)
		want, err := Multiply(a, b, &Options{Algorithm: AlgHash})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Multiply(a, b, &Options{Algorithm: AlgHash, Context: ctx, ShardMemBudget: stripeBudget(a, b, 1+round*3)})
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(want, got) {
			t.Fatalf("round %d: context-reuse striped product differs from hash", round)
		}
	}
}

// TestShardedAutoRouting: the recipe's Heap cell holds only products whose
// estimated output stays under shardedAutoBytes. Past the threshold a
// uniform sorted ef <= 2 square goes to Hash, which cuts its own budget
// stripes; under it, or with the threshold off, it stays with Heap.
func TestShardedAutoRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	a := matrix.RandomWithDegree(300, 300, 2, rng)
	prev := shardedAutoBytes.Swap(0)
	defer shardedAutoBytes.Store(prev)
	if alg := Recommend(a, a, true, UseSquare); alg != AlgHeap {
		t.Fatalf("threshold off: Recommend = %v, want heap (the fixture must reach the Heap cell)", alg)
	}
	shardedAutoBytes.Store(1) // any nonzero output crosses it
	if alg := Recommend(a, a, true, UseSquare); alg != AlgHash {
		t.Errorf("tiny threshold: Recommend = %v, want hash", alg)
	}
	var st ExecStats
	if _, err := Multiply(a, a, &Options{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.Algorithm != AlgHash {
		t.Errorf("auto multiply ran %v, want hash", st.Algorithm)
	}
	shardedAutoBytes.Store(1 << 60)
	if alg := Recommend(a, a, true, UseSquare); alg != AlgHeap {
		t.Errorf("huge threshold: Recommend = %v, want heap", alg)
	}
}

// TestSpillSinkEveryTwoPhaseProduct: a sink belongs to the call, not to an
// algorithm. AlgAuto (on an input the recipe would give Heap) and Hash
// each land their stripes in it: the product spills, every stripe
// says so, and the sorted output is bit-identical to the sink-less Hash
// product. Heap, which is one-phase, refuses a sink, and an unsorted one-worker Hash product that takes the one-pass route
// without one keeps its symbolic pass with one.
func TestSpillSinkEveryTwoPhaseProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := matrix.RandomWithDegree(400, 400, 2, rng)
	if alg := Recommend(a, a, true, UseSquare); alg != AlgHeap {
		t.Fatalf("Recommend = %v, want heap (AlgAuto must be steered off it by the sink)", alg)
	}
	want, err := Multiply(a, a, &Options{Algorithm: AlgHash})
	if err != nil {
		t.Fatal(err)
	}
	budget := max(want.NNZ()*12/4, 64)
	for _, alg := range []Algorithm{AlgAuto, AlgHash} {
		sink := NewSpillSink[float64](t.TempDir(), budget)
		var st ExecStats
		got, err := Multiply(a, a, &Options{Algorithm: alg, Workers: 2, ShardSink: sink, Stats: &st})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !bitIdentical(want, got) {
			t.Errorf("%v: spilled product differs from hash", alg)
		}
		if sink.SpilledBytes() == 0 || len(st.Stripes) == 0 {
			t.Errorf("%v: spilled %d bytes in %d stripes, want some", alg, sink.SpilledBytes(), len(st.Stripes))
		}
		for _, s := range st.Stripes {
			if !s.Spilled {
				t.Errorf("%v: stripe [%d,%d) not marked spilled", alg, s.Lo, s.Hi)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}

	heapSink := NewSpillSink[float64](t.TempDir(), budget)
	if _, err := Multiply(a, a, &Options{Algorithm: AlgHeap, ShardSink: heapSink}); err == nil {
		t.Error("heap accepted a sink")
	}
	if err := heapSink.Close(); err != nil {
		t.Fatal(err)
	}

	thin := gen.Unsorted(gen.ER(10, 3, rng), rng)
	opt := Options{Algorithm: AlgHash, Unsorted: true, Workers: 1}
	var direct, spilled ExecStats
	opt.Stats = &direct
	ref, err := Multiply(thin, thin, &opt)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Phases[PhaseSymbolic] != 0 {
		t.Fatal("the fixture did not take the one-pass route without a sink")
	}
	sink := NewSpillSink[float64](t.TempDir(), 64)
	defer sink.Close()
	opt.Stats, opt.ShardSink = &spilled, sink
	got, err := Multiply(thin, thin, &opt)
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Phases[PhaseSymbolic] == 0 || sink.SpilledBytes() == 0 {
		t.Errorf("with a sink: symbolic %v, spilled %d bytes; want two phases into the sink", spilled.Phases[PhaseSymbolic], sink.SpilledBytes())
	}
	rs, gs := ref.Clone(), got.Clone()
	rs.SortRows()
	gs.SortRows()
	rs.Sorted, gs.Sorted = true, true
	if !bitIdentical(rs, gs) {
		t.Error("unsorted spilled entry sets differ from the one-pass product")
	}
}
