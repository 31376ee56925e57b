package spgemm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
)

// TestExecStatsPhaseSumInvariant pins the accounting audit's conclusion:
// under a monotonic clock, PhaseSum() <= Total holds exactly for every
// algorithm, for sorted and unsorted output and across worker counts.
func TestExecStatsPhaseSumInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.ER(9, 8, rng)
	for _, alg := range statsAlgorithms {
		for _, unsorted := range []bool{false, true} {
			if unsorted && !SupportsUnsorted(alg) {
				continue
			}
			for _, workers := range []int{1, 3} {
				var st ExecStats
				opt := &Options{Algorithm: alg, Workers: workers, Unsorted: unsorted, Stats: &st}
				if _, err := Multiply(g, g, opt); err != nil {
					t.Fatalf("%v unsorted=%v: %v", alg, unsorted, err)
				}
				if st.PhaseSum() > st.Total {
					t.Errorf("%v unsorted=%v workers=%d: PhaseSum %v > Total %v",
						alg, unsorted, workers, st.PhaseSum(), st.Total)
				}
			}
		}
	}
	// The plan path has its own timers on both the inspector and executor.
	var st ExecStats
	p, err := NewPlan(g, g, &Options{Algorithm: AlgHash, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.PhaseSum() > st.Total {
		t.Errorf("NewPlan: PhaseSum %v > Total %v", st.PhaseSum(), st.Total)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	if st.PhaseSum() > st.Total {
		t.Errorf("Execute: PhaseSum %v > Total %v", st.PhaseSum(), st.Total)
	}
}

// TestExecStatsAdd covers the accumulation API: phases, totals and worker
// counters (Busy included) fold together, and the worker slice grows to the larger run.
func TestExecStatsAdd(t *testing.T) {
	a := ExecStats{Algorithm: AlgHash, Total: 10 * time.Millisecond}
	a.Phases[PhaseNumeric] = 6 * time.Millisecond
	a.Workers = []WorkerStats{{Rows: 3, Flop: 30, Busy: 5 * time.Millisecond}}

	b := ExecStats{Algorithm: AlgHeap, Total: 4 * time.Millisecond}
	b.Phases[PhaseNumeric] = 2 * time.Millisecond
	b.Phases[PhaseSymbolic] = time.Millisecond
	b.Workers = []WorkerStats{{Rows: 1, Flop: 10, Busy: 2 * time.Millisecond}, {Rows: 2, Flop: 20, HashLookups: 5, Busy: time.Millisecond}}

	a.Add(&b)
	if a.Total != 14*time.Millisecond {
		t.Errorf("Total = %v", a.Total)
	}
	if a.Phases[PhaseNumeric] != 8*time.Millisecond || a.Phases[PhaseSymbolic] != time.Millisecond {
		t.Errorf("Phases = %v", a.Phases)
	}
	if a.Algorithm != AlgHeap {
		t.Errorf("Algorithm = %v", a.Algorithm)
	}
	if len(a.Workers) != 2 || a.Workers[0].Rows != 4 || a.Workers[1].HashLookups != 5 ||
		a.Workers[0].Busy != 7*time.Millisecond || a.Workers[1].Busy != time.Millisecond {
		t.Errorf("Workers = %+v", a.Workers)
	}
	a.Add(nil) // must not panic
	if a.Total != 14*time.Millisecond {
		t.Errorf("Add(nil) changed Total to %v", a.Total)
	}

	c := a.Clone()
	c.Workers[0].Rows = 99
	if a.Workers[0].Rows == 99 {
		t.Error("Clone shares the Workers slice")
	}
}

// TestContextCumulativeStats verifies the automatic accumulation iterative
// workloads rely on: every stats-enabled Multiply through a Context folds
// into CumulativeStats.
func TestContextCumulativeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := gen.ER(8, 6, rng)
	var st ExecStats
	opt := &Options{Algorithm: AlgHash, Workers: 2, Stats: &st, Context: NewContext()}

	const calls = 3
	var wantFlop int64
	for i := 0; i < calls; i++ {
		if _, err := Multiply(g, g, opt); err != nil {
			t.Fatal(err)
		}
		wantFlop += st.TotalWorker().Flop
	}
	cum := opt.Context.CumulativeStats()
	if cum == nil {
		t.Fatal("CumulativeStats = nil after stats-enabled calls")
	}
	if cum.Total < st.Total {
		t.Errorf("cumulative Total %v < last call's %v", cum.Total, st.Total)
	}
	if got := cum.TotalWorker().Flop; got != wantFlop {
		t.Errorf("cumulative flop = %d, want %d", got, wantFlop)
	}
	if cum.TotalWorker().Rows != int64(calls*g.Rows) {
		t.Errorf("cumulative rows = %d, want %d", cum.TotalWorker().Rows, calls*g.Rows)
	}

	// Stats-disabled calls do not accumulate.
	if _, err := Multiply(g, g, &Options{Algorithm: AlgHash, Context: opt.Context}); err != nil {
		t.Fatal(err)
	}
	if got := opt.Context.CumulativeStats().TotalWorker().Rows; got != int64(calls*g.Rows) {
		t.Errorf("stats-disabled call accumulated: rows = %d, want %d", got, calls*g.Rows)
	}
}

// TestMetricsExposedSeries pins the /metrics contract: after exercising the
// kernels, the default registry exposes at least the pool, mempool, spgemm
// and plan-reuse series.
func TestMetricsExposedSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := gen.ER(8, 6, rng)
	var st ExecStats
	if _, err := Multiply(g, g, &Options{Algorithm: AlgHash, Workers: 2, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(g, g, &Options{Algorithm: AlgHash, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	p.Invalidate()
	if _, err := p.Execute(); err != ErrPlanStale {
		t.Fatalf("Execute after Invalidate: %v", err)
	}

	var buf bytes.Buffer
	if err := obs.DefaultRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, series := range []string{
		"sched_pool_regions_total",
		"mempool_live_bytes",
		"spgemm_multiplies_total",
		`spgemm_multiplies_total{alg="hash"}`,
		"spgemm_flop_total",
		"spgemm_collision_factor_count",
		"spgemm_context_acc_alloc_total",
		"spgemm_plan_builds_total",
		"spgemm_plan_executes_total",
		"spgemm_plan_stale_total",
		"spgemm_output_reused_total",
		"spgemm_output_allocated_total",
		"spgemm_output_reused_bytes_total",
		"spgemm_output_allocated_bytes_total",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("/metrics missing series %q", series)
		}
	}
}
