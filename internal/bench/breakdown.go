package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/bench/baseline"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/spgemm"
)

// runFig8 reproduces the paper's Figure 8-style phase breakdown: for each
// algorithm, the share of execution time spent in the partition, symbolic,
// alloc, numeric and assemble phases, measured with the ExecStats
// instrumentation, plus the accumulator counters (hash collision factor,
// heap pushes, level-2 overflows) that explain the numeric-phase behavior.
// Squares one ER and one G500 matrix; `spgemm-bench -breakdown` is a
// shortcut for this experiment.
func runFig8(cfg Config, w io.Writer) error {
	scale, ef := 12, 8
	switch cfg.Preset {
	case Tiny:
		scale, ef = 7, 4
	case Full:
		scale, ef = 16, 16
	}
	rng := rand.New(rand.NewSource(cfg.seed()))
	inputs := []struct {
		name string
		m    *matrix.CSR
	}{
		{"ER", gen.ER(scale, ef, rng)},
		{"G500", gen.RMAT(scale, ef, gen.G500Params, rng)},
	}
	algs := []contender{
		spgemm.AlgHash, baseline.HashVec, spgemm.AlgHeap, baseline.SPA,
		baseline.MKL, baseline.MKLInspector, baseline.Kokkos,
	}

	t := newTable("matrix", "alg", "total_ms", "partition%", "symbolic%", "alloc%", "numeric%", "assemble%", "mflops", "cf", "heap_pushes", "l2_overflow", "imb")
	hashStats := make(map[string]*spgemm.ExecStats)
	for _, in := range inputs {
		flop, _ := matrix.Flop(in.m, in.m)
		for _, alg := range algs {
			// st is the last rep, reps all of them: the balance view sums
			// every rep's per-worker Busy.
			var st, reps spgemm.ExecStats
			var err error
			d := timeAvg(cfg.reps(), func() {
				if _, e := multiply(alg, in.m, in.m, cfg.Workers, false, &st); e != nil {
					err = e
				}
				reps.Add(&st)
			})
			if err != nil {
				return fmt.Errorf("fig8 %s/%v: %w", in.name, alg, err)
			}
			if alg == spgemm.AlgHash {
				hashStats[in.name] = &reps
			}
			row := []string{in.name, alg.String(), fmt.Sprintf("%.2f", float64(st.Total)/float64(time.Millisecond))}
			for p := spgemm.Phase(0); p < spgemm.NumPhases; p++ {
				pct := 0.0
				if st.Total > 0 {
					pct = 100 * float64(st.Phases[p]) / float64(st.Total)
				}
				row = append(row, f1(pct))
			}
			tot := st.TotalWorker()
			_, _, imb := busyBalance(&reps)
			row = append(row, f1(mflops(flop, d)), f2(st.CollisionFactor()),
				fmt.Sprintf("%d", tot.HeapPushes), fmt.Sprintf("%d", tot.L2Overflows),
				f2(imb))
			t.add(row...)
		}
	}
	t.write(w, cfg.CSV)
	fmt.Fprintln(w, "# phase shares of total wall time; cf = hash collision factor (Eq. 2)")
	fmt.Fprintln(w, "# imb = max/mean per-worker busy time (WorkerStats.Busy) over the runs' parallel regions")
	fmt.Fprintln(w, "# expectation (paper): numeric dominates; symbolic adds ~30-50% on two-phase")
	fmt.Fprintln(w, "# algorithms; G500 raises the collision factor and heap pushes vs ER")
	for _, in := range inputs {
		if st := hashStats[in.name]; st != nil && len(st.Workers) > 0 {
			fmt.Fprintf(w, "\n# load balance, %s / hash (%d reps):\n", in.name, cfg.reps())
			writeBalance(w, st)
		}
	}
	return nil
}

// busyBalance returns the largest and the mean per-worker Busy of st and
// their ratio — 1.0 is perfect balance, and the value the flop-balanced
// partition (Figure 6) is meant to keep near 1.0 where naive static
// scheduling does not. The ratio is 1 when no worker was timed.
func busyBalance(st *spgemm.ExecStats) (hi, mean time.Duration, ratio float64) {
	var sum time.Duration
	for _, ws := range st.Workers {
		sum += ws.Busy
		hi = max(hi, ws.Busy)
	}
	if sum == 0 {
		return 0, 0, 1
	}
	mean = sum / time.Duration(len(st.Workers))
	return hi, mean, float64(hi) / float64(mean)
}

// writeBalance renders st's per-worker busy table with the max/mean line.
func writeBalance(w io.Writer, st *spgemm.ExecStats) {
	hi, mean, ratio := busyBalance(st)
	for wi, ws := range st.Workers {
		bar := ""
		if hi > 0 {
			bar = strings.Repeat("#", int(40*ws.Busy/hi))
		}
		fmt.Fprintf(w, "worker %2d busy %12v rows %8d %s\n", wi, ws.Busy, ws.Rows, bar)
	}
	fmt.Fprintf(w, "workers %d  max %v  mean %v  max/mean %.2f\n", len(st.Workers), hi, mean, ratio)
}
