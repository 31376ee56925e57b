package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/memmodel"
	"repro/internal/mempool"
	"repro/internal/sched"
)

// runFig2 reproduces Figure 2: the cost of scheduling an empty loop body
// over the three OpenMP-style schedules, as a function of iteration count.
func runFig2(cfg Config, w io.Writer) error {
	maxExp := 19
	if cfg.Preset == Tiny {
		maxExp = 10
	}
	// The microbenchmark measures the scheduling *protocol* (per-chunk
	// dispatch, shared-counter atomics), which needs at least two workers
	// — with one worker ParallelFor legitimately short-circuits the whole
	// protocol away.
	workers := cfg.workers()
	if workers < 2 {
		workers = 2
	}
	reps := cfg.reps()
	t := newTable("iterations", "static_ms", "dynamic_ms", "guided_ms")
	for e := 5; e <= maxExp; e += 2 {
		n := 1 << uint(e)
		row := []string{fmt.Sprintf("2^%d", e)}
		for _, s := range []sched.Schedule{sched.Static, sched.Dynamic, sched.Guided} {
			d := timeAvg(reps, func() {
				sched.ParallelFor(workers, n, s, 1, func(worker, lo, hi int) {
					// Empty body: the measurement is pure scheduling
					// overhead, exactly as in the paper's microbenchmark.
				})
			})
			row = append(row, fmt.Sprintf("%.4f", float64(d.Nanoseconds())/1e6))
		}
		t.add(row...)
	}
	t.write(w, cfg.CSV)
	fmt.Fprintln(w, "# expectation (paper): static << dynamic ≈ guided, gap widening with iterations")
	return nil
}

// runFig4 reproduces Figure 4: the cost of one allocate–touch–release round
// trip for a single shared block vs per-worker blocks. Go's GC stands in for
// delete/scalable_free; see DESIGN.md.
func runFig4(cfg Config, w io.Writer) error {
	// Array sizes in MB: the paper sweeps 2^1..2^15 MB; Quick stops at
	// 512 MB to stay friendly to CI machines.
	maxExp := 9
	switch cfg.Preset {
	case Tiny:
		maxExp = 3
	case Full:
		maxExp = 13
	}
	workers := cfg.workers()
	t := newTable("size_mb", "single_alloc_ms", "single_dealloc_ms", "parallel_alloc_ms", "parallel_dealloc_ms")
	for e := 1; e <= maxExp; e += 2 {
		bytes := (1 << uint(e)) * (1 << 20)
		s := mempool.MeasureSingle(bytes)
		p := mempool.MeasureParallel(bytes, workers)
		t.add(fmt.Sprintf("%d", 1<<uint(e)),
			fmt.Sprintf("%.3f", s.Alloc.Seconds()*1e3),
			fmt.Sprintf("%.3f", s.Dealloc.Seconds()*1e3),
			fmt.Sprintf("%.3f", p.Alloc.Seconds()*1e3),
			fmt.Sprintf("%.3f", p.Dealloc.Seconds()*1e3))
	}
	t.write(w, cfg.CSV)
	fmt.Fprintln(w, "# expectation (paper): parallel dealloc beats single for large sizes; small sizes favor single")
	return nil
}

// runFig5 reproduces Figure 5: read bandwidth vs contiguous-access (stanza)
// length. The DDR curve is measured on this host; the MCDRAM curve is the
// modeled tier (no KNL hardware available).
func runFig5(cfg Config, w io.Writer) error {
	results := stanzaCurve(cfg.Preset)
	ddr, tier := ddrTier(results)
	mc := memmodel.MCDRAMFrom(ddr)
	t := newTable("stanza_bytes", "ddr_measured_GBps", "ddr_model_GBps", "mcdram_model_GBps")
	for _, r := range results {
		t.add(fmt.Sprintf("%d", r.StanzaBytes),
			f2(r.GBps), f2(ddr.Bandwidth(float64(r.StanzaBytes))), f2(mc.Bandwidth(float64(r.StanzaBytes))))
	}
	t.write(w, cfg.CSV)
	fmt.Fprintf(w, "# %s; MCDRAM modeled at %.1fx peak, %.1fx latency\n",
		tier, memmodel.MCDRAMPeakRatio, memmodel.MCDRAMLatencyRatio)
	fmt.Fprintln(w, "# expectation (paper): both curves rise with stanza length; MCDRAM only wins for long stanzas")
	return nil
}

// stanzaRounds is how many times stanzaCurve probes each stanza length.
const stanzaRounds = 3

// stanzaCurve is the host's stanza bandwidth curve that Figures 5 and 10
// model from: stanzas of 16 B to 16 KiB over a 64 MiB array (4 MiB at Tiny,
// 256 MiB at Full), each length reading the median GB/s of stanzaRounds
// probes, so one disturbed round neither bends the curve nor fails the fit.
func stanzaCurve(preset Preset) []memmodel.StanzaResult {
	arrayBytes, perPoint := 1<<26, 30*time.Millisecond
	switch preset {
	case Tiny:
		arrayBytes, perPoint = 1<<22, 5*time.Millisecond
	case Full:
		arrayBytes, perPoint = 1<<28, 200*time.Millisecond
	}
	var lengths []int
	for l := 16; l <= 16384; l *= 4 {
		lengths = append(lengths, l)
	}
	rounds := make([][]memmodel.StanzaResult, stanzaRounds)
	for i := range rounds {
		rounds[i] = memmodel.MeasureStanzaBandwidth(arrayBytes, lengths, perPoint)
	}
	return medianCurve(rounds)
}

// medianCurve is the per-length median GB/s of several probes of one curve.
func medianCurve(rounds [][]memmodel.StanzaResult) []memmodel.StanzaResult {
	curve := slices.Clone(rounds[0])
	gbps := make([]float64, len(rounds))
	for j := range curve {
		for i, r := range rounds {
			gbps[i] = r[j].GBps
		}
		slices.Sort(gbps)
		curve[j].GBps = gbps[len(gbps)/2]
	}
	return curve
}

// ddrTier is the DDR tier Figures 5 and 10 model with, and the footer line
// that names it: the pipe fitted to the host's stanza curve, or
// memmodel.DefaultDDR when that fit is not physical (a probe that sits in
// cache reads a curve with no latency).
func ddrTier(results []memmodel.StanzaResult) (memmodel.Tier, string) {
	ddr, err := memmodel.FitTier("DDR (fit)", results)
	used := "fitted to this host"
	if err != nil {
		ddr, used = memmodel.DefaultDDR, fmt.Sprintf("DefaultDDR, the fit failed (%v)", err)
	}
	return ddr, fmt.Sprintf("DDR tier %s: peak %.1f GB/s, latency %.0f ns", used, ddr.PeakGBps, ddr.LatencyNs)
}
