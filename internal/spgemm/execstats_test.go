package spgemm

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// statsAlgorithms is every algorithm the breakdown instrumentation covers.
var statsAlgorithms = []Algorithm{AlgHash, AlgHeap}

// TestExecStatsPhaseSumMatchesTotal is the tentpole acceptance criterion:
// phases are timed back-to-back, so their sum must account for the measured
// total within 5% (plus a small absolute floor for clock granularity on the
// cheapest algorithms).
func TestExecStatsPhaseSumMatchesTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.ER(10, 8, rng)
	for _, alg := range statsAlgorithms {
		var st ExecStats
		if _, err := Multiply(g, g, &Options{Algorithm: alg, Stats: &st}); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if st.Total <= 0 {
			t.Fatalf("%v: Total = %v, want > 0", alg, st.Total)
		}
		diff := st.Total - st.PhaseSum()
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.05*float64(st.Total)+float64(200_000) { // 0.2ms floor
			t.Errorf("%v: PhaseSum %v vs Total %v (diff %v > 5%%)", alg, st.PhaseSum(), st.Total, diff)
		}
		if st.Algorithm != alg {
			t.Errorf("%v: Stats.Algorithm = %v", alg, st.Algorithm)
		}
	}
}

// TestExecStatsMaskedIsOnePhase: a masked product has no symbolic pass — its
// mask rows bound its output — so its stats are the one-phase geometry's:
// nothing under PhaseSymbolic, an assemble phase, phases that still sum to
// Total, and the worker counters of the unmasked product (every product is
// looked at, the mask only decides where it lands).
func TestExecStatsMaskedIsOnePhase(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := gen.ER(10, 8, rng)
	flop, _ := matrix.Flop(g, g)
	for _, workers := range []int{1, 3} {
		var st ExecStats
		if _, err := Multiply(g, g, &Options{Algorithm: AlgHash, Mask: g, Workers: workers, Stats: &st}); err != nil {
			t.Fatal(err)
		}
		if st.Phases[PhaseSymbolic] != 0 || st.Phases[PhaseNumeric] <= 0 || st.Phases[PhaseAssemble] <= 0 {
			t.Errorf("workers=%d: phases %v, want no symbolic, some numeric and assemble", workers, st.Phases)
		}
		if diff := (st.Total - st.PhaseSum()).Abs(); float64(diff) > 0.05*float64(st.Total)+200_000 {
			t.Errorf("workers=%d: PhaseSum %v vs Total %v", workers, st.PhaseSum(), st.Total)
		}
		if tot := st.TotalWorker(); tot.Flop != flop || tot.Rows != int64(g.Rows) || len(st.Workers) != workers {
			t.Errorf("workers=%d: %d workers counted flop %d rows %d, want %d and %d", workers, len(st.Workers), tot.Flop, tot.Rows, flop, g.Rows)
		}
	}
}

// TestExecStatsPhaseSpans pins the interval reconstruction the multiply
// server's request traces are built from: spans are back-to-back, in phase
// order, cover exactly PhaseSum(), and stay inside the Total window.
func TestExecStatsPhaseSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := gen.ER(10, 8, rng)
	for _, alg := range statsAlgorithms {
		var st ExecStats
		if _, err := Multiply(g, g, &Options{Algorithm: alg, Stats: &st}); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		spans := st.PhaseSpans()
		if len(spans) == 0 {
			t.Fatalf("%v: no phase spans", alg)
		}
		var end, sum int64
		last := Phase(-1)
		for _, sp := range spans {
			if sp.Phase <= last {
				t.Errorf("%v: spans out of phase order: %v after %v", alg, sp.Phase, last)
			}
			last = sp.Phase
			if int64(sp.Offset) != end {
				t.Errorf("%v: span %v starts at %v, want back-to-back at %v", alg, sp.Phase, sp.Offset, end)
			}
			if sp.Dur <= 0 {
				t.Errorf("%v: span %v has non-positive duration %v", alg, sp.Phase, sp.Dur)
			}
			end = int64(sp.Offset + sp.Dur)
			sum += int64(sp.Dur)
		}
		if sum != int64(st.PhaseSum()) {
			t.Errorf("%v: span sum %v != PhaseSum %v", alg, sum, st.PhaseSum())
		}
	}

	// Synthetic check with gaps: phases the kernel never ran are skipped but
	// offsets still accumulate only executed time.
	var st ExecStats
	st.Phases[PhaseSymbolic] = 3
	st.Phases[PhaseNumeric] = 5
	spans := st.PhaseSpans()
	if len(spans) != 2 || spans[0].Phase != PhaseSymbolic || spans[0].Offset != 0 ||
		spans[1].Phase != PhaseNumeric || spans[1].Offset != 3 || spans[1].Dur != 5 {
		t.Fatalf("synthetic spans wrong: %+v", spans)
	}
}

// TestExecStatsCounters checks the per-worker counters against ground truth:
// rows and flop are exact, and each accumulator family reports its own
// operation counts — Hash on both sides of the Cols <= flop rule: the
// hypersparse (wide) product keeps the table in both phases, the square folds
// every numeric product into the SPA.
func TestExecStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := gen.ER(9, 8, rng)
	wide := matrix.RandomWithDegree(g.Cols, 1<<16, 4, rng)
	for _, b := range []*matrix.CSR{g, wide} {
		totalFlop, _ := matrix.Flop(g, b)
		for _, alg := range statsAlgorithms {
			var st ExecStats
			if _, err := Multiply(g, b, &Options{Algorithm: alg, Workers: 4, Stats: &st}); err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			tot := st.TotalWorker()
			if tot.Rows != int64(g.Rows) {
				t.Errorf("%v: worker rows sum to %d, want %d", alg, tot.Rows, g.Rows)
			}
			if tot.Flop != totalFlop {
				t.Errorf("%v: worker flop sums to %d, want %d", alg, tot.Flop, totalFlop)
			}
			switch {
			case alg == AlgHash && b == g:
				if tot.DenseFlop != totalFlop || tot.HashLookups != 0 {
					t.Errorf("%v: DenseFlop = %d, HashLookups = %d; want flop %d and 0", alg, tot.DenseFlop, tot.HashLookups, totalFlop)
				}
			case alg == AlgHash:
				if tot.HashLookups < totalFlop {
					// The numeric pass touches every product once (and
					// symbolic too, on the wide product).
					t.Errorf("%v: HashLookups = %d, want >= flop %d", alg, tot.HashLookups, totalFlop)
				}
				if cf := st.CollisionFactor(); cf < 1 {
					t.Errorf("%v: collision factor %f < 1", alg, cf)
				}
			case alg == AlgHeap:
				if tot.HeapPushes == 0 {
					t.Errorf("%v: no heap pushes recorded", alg)
				}
			}
		}
	}
}

// TestWorkerBusy pins WorkerStats.Busy on every geometry that runs parallel
// regions — the two-phase stripes, Heap's one-phase merge, stripes past one
// per worker, a masked product and a Plan's streamed replay: every worker that
// produced rows was timed, and no worker can be busy longer than the call, so
// Σ Busy ≤ W·Total.
func TestWorkerBusy(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := gen.RMAT(9, 8, gen.G500Params, rng)
	for _, tc := range []struct {
		name string
		opt  Options
		plan bool
	}{
		{"hash", Options{Algorithm: AlgHash}, false},
		{"heap", Options{Algorithm: AlgHeap}, false},
		{"hash/7-stripes", Options{Algorithm: AlgHash, ShardMemBudget: stripeBudget(g, g, 7)}, false},
		{"hash+mask", Options{Algorithm: AlgHash, Mask: g}, false},
		{"hash/replay", Options{Algorithm: AlgHash}, true},
	} {
		for _, workers := range []int{1, 3} {
			var st ExecStats
			opt := tc.opt
			opt.Workers = workers
			if !tc.plan {
				opt.Stats = &st
				if _, err := Multiply(g, g, &opt); err != nil {
					t.Fatalf("%s W=%d: %v", tc.name, workers, err)
				}
			} else {
				p, err := NewPlan(g, g, &opt)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ { // the second execution builds the map
					if _, err := p.Execute(); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := p.ExecuteIn(nil, &st); err != nil {
					t.Fatal(err)
				}
				if tot := st.TotalWorker(); tot.ReplayFlop == 0 || tot.ReplayFlop != tot.Flop {
					t.Fatalf("%s W=%d: ReplayFlop %d of flop %d, want a streamed replay", tc.name, workers, tot.ReplayFlop, tot.Flop)
				}
			}
			var sum time.Duration
			for w, ws := range st.Workers {
				if ws.Rows > 0 && ws.Busy <= 0 {
					t.Errorf("%s W=%d: worker %d produced %d rows with Busy %v", tc.name, workers, w, ws.Rows, ws.Busy)
				}
				sum += ws.Busy
			}
			if len(st.Workers) != workers || sum > time.Duration(workers)*st.Total {
				t.Errorf("%s W=%d: %d workers, Σ Busy %v > W·Total %v", tc.name, workers, len(st.Workers), sum, time.Duration(workers)*st.Total)
			}
		}
	}
}

// TestExecStatsReusedAcrossCalls verifies a Stats struct is reset per call,
// not accumulated, including when the worker count changes.
func TestExecStatsReusedAcrossCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := gen.ER(8, 4, rng)
	var st ExecStats
	if _, err := Multiply(g, g, &Options{Algorithm: AlgHash, Workers: 4, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	first := st.TotalWorker()
	if _, err := Multiply(g, g, &Options{Algorithm: AlgHash, Workers: 2, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("Workers len = %d after 2-worker run", len(st.Workers))
	}
	second := st.TotalWorker()
	if second.Rows != first.Rows || second.Flop != first.Flop {
		t.Errorf("stats accumulated across calls: %+v vs %+v", second, first)
	}
}

// TestExecStatsString smoke-tests the breakdown rendering.
func TestExecStatsString(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := gen.ER(7, 4, rng)
	var st ExecStats
	if _, err := Multiply(g, g, &Options{Algorithm: AlgHash, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	s := st.String()
	for _, want := range []string{"hash", "total=", "numeric=", "flop=", "busy max/mean="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	for p := Phase(0); p <= NumPhases; p++ {
		_ = p.String()
	}

	// A streamed replay touches no accumulator; its line names the counter
	// that replaced them.
	p, err := NewPlan(g, g, &Options{Algorithm: AlgHash, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Execute(); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.String(); !strings.Contains(s, "replay_flop=") {
		t.Errorf("replay String() = %q, missing replay_flop=", s)
	}
}

// TestExecStatsNilSafe pins the nil-Stats contract: the helpers used on hot
// paths must be inert on nil.
func TestExecStatsNilSafe(t *testing.T) {
	pt := startPhases(nil, AlgHash, 8)
	pt.tick(PhaseNumeric)
	pt.finish()
	if ws := pt.worker(0); ws != nil {
		t.Fatal("worker() on disabled timer returned non-nil")
	}
}

// TestCapBoundDegenerate is the regression for the capBound bug: a
// zero-column output must get a zero bound (the old code returned 1, making
// accumulators allocate for impossible entries).
func TestCapBoundDegenerate(t *testing.T) {
	cases := []struct {
		bound int64
		cols  int
		want  int64
	}{
		{5, 0, 0}, {0, 10, 0}, {-3, 10, 0}, {20, 10, 10}, {7, 10, 7}, {0, 0, 0},
	}
	for _, c := range cases {
		if got := capBound(c.bound, c.cols); got != c.want {
			t.Errorf("capBound(%d, %d) = %d, want %d", c.bound, c.cols, got, c.want)
		}
	}
}

// TestRecommendNeverReturnsSortedOnlyForUnsortedB is the dispatch-bug
// regression (the PR's headline fix): whatever Table 4 says, Recommend must
// not hand an unsorted B to Heap. An ER scale-10 sorted-output request is the
// original repro — low compression ratio and low degree make Table 4 pick
// Heap, which then rejected the unsorted input.
func TestRecommendNeverReturnsSortedOnlyForUnsortedB(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	er := gen.ER(10, 2, rng)
	erU := gen.Unsorted(er, rng)
	if alg := Recommend(er, er, true, UseSquare); alg != AlgHeap {
		t.Fatalf("fixture: the recipe answers %v for the sorted pair, want heap", alg)
	}
	for _, uc := range []UseCase{UseSquare, UseTallSkinny, UseTriangle} {
		for _, sorted := range []bool{true, false} {
			if alg := Recommend(er, erU, sorted, uc); RequiresSortedInput(alg) {
				t.Errorf("Recommend(sorted=%v, %v) = %v for unsorted B", sorted, uc, alg)
			}
		}
	}
	// The original failure: AlgAuto on unsorted input returned "heap
	// algorithm requires sorted input rows".
	got, err := Multiply(er, erU, &Options{Algorithm: AlgAuto})
	if err != nil {
		t.Fatalf("AlgAuto on unsorted B: %v", err)
	}
	if !matrix.EqualApprox(got, matrix.NaiveMultiply(er, erU), 1e-9) {
		t.Fatal("AlgAuto fallback produced wrong result")
	}
}

// TestUseCasePlumbing verifies Multiply consults Options.UseCase (it used to
// hardcode UseSquare): for each use case the algorithm recorded in Stats
// matches a direct Recommend call with that use case.
func TestUseCasePlumbing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.RMAT(8, 8, gen.G500Params, rng)
	ts := gen.TallSkinny(g, 3, rng)
	pairs := []struct {
		uc   UseCase
		a, b *matrix.CSR
	}{
		{UseSquare, g, g},
		{UseTallSkinny, g, ts},
		{UseTriangle, g, g},
	}
	for _, p := range pairs {
		var st ExecStats
		got, err := Multiply(p.a, p.b, &Options{Algorithm: AlgAuto, UseCase: p.uc, Stats: &st})
		if err != nil {
			t.Fatalf("%v: %v", p.uc, err)
		}
		want := Recommend(p.a, p.b, true, p.uc)
		if st.Algorithm != want {
			t.Errorf("%v: dispatched %v, Recommend says %v", p.uc, st.Algorithm, want)
		}
		if !matrix.EqualApprox(got, matrix.NaiveMultiply(p.a, p.b), 1e-9) {
			t.Errorf("%v: wrong result", p.uc)
		}
	}
}

// BenchmarkStatsOverhead quantifies the disabled-stats cost for the PR's
// <2% acceptance criterion: run with
//
//	go test -bench BenchmarkStatsOverhead -benchtime 3s ./internal/spgemm
//
// and compare the nil and enabled lines.
func BenchmarkStatsOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	g := gen.ER(12, 8, rng)
	for _, cfg := range []struct {
		name  string
		stats *ExecStats
	}{
		{"nil", nil},
		{"enabled", &ExecStats{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			opt := &Options{Algorithm: AlgHash, Stats: cfg.stats}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Multiply(g, g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOnePhaseStatsAcrossStripes: the one-phase geometry cuts masked and
// Heap products into several stripes per worker, which the workers claim, so
// each worker's Rows and Flop accumulate over every stripe it ran — as
// execute's do — and sum to the product's rows and flop: one-shot, masked
// and Heap, and through a Heap Plan's replay. Every row of A carries flop,
// so the rows counted (every row of a worker's stripes) are the rows with
// flop.
func TestOnePhaseStatsAcrossStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := matrix.RandomWithDegree(96, 96, 5, rng)
	flop, _ := matrix.Flop(a, a)
	for _, workers := range []int{2, 3} {
		for _, tc := range []struct {
			name string
			opt  Options
			plan bool
		}{
			{"hash+mask", Options{Algorithm: AlgHash, Mask: a}, false},
			{"heap", Options{Algorithm: AlgHeap}, false},
			{"heap/plan", Options{Algorithm: AlgHeap}, true},
		} {
			var st ExecStats
			opt := tc.opt
			opt.Workers = workers
			if tc.plan {
				p, err := NewPlan(a, a, &opt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.ExecuteIn(nil, &st); err != nil {
					t.Fatal(err)
				}
			} else {
				opt.Stats = &st
				if _, err := Multiply(a, a, &opt); err != nil {
					t.Fatal(err)
				}
			}
			if tot := st.TotalWorker(); tot.Rows != int64(a.Rows) || tot.Flop != flop {
				t.Errorf("%s W=%d: workers' Σ Rows %d, Σ Flop %d; want %d and %d", tc.name, workers, tot.Rows, tot.Flop, a.Rows, flop)
			}
		}
	}
}
