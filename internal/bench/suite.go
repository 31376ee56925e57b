package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// proxyMaxN caps the proxy row counts per preset (DESIGN.md: scaled-down
// stand-ins preserve degree and compression ratio, which is what Figures
// 14/15/17 plot against).
func proxyMaxN(p Preset) int {
	switch p {
	case Tiny:
		return 1 << 9
	case Full:
		return 0 // paper-size
	default:
		return 1 << 12
	}
}

// suiteResult holds one proxy matrix's measurements across both tracks.
type suiteResult struct {
	profile  gen.Profile
	cr       float64   // measured compression ratio of the proxy's A²
	sorted   []float64 // MFLOPS per sortedAlgos entry (0 = failed)
	unsorted []float64 // MFLOPS per unsortedAlgos entry
}

var suiteCache struct {
	sync.Mutex
	key  string
	runs []suiteResult
}

// runSuite measures all Table 2 proxies under both tracks, memoized per
// configuration so fig14/fig15/table4/hmean share one pass.
func runSuite(cfg Config) []suiteResult {
	key := fmt.Sprintf("%d/%d/%d/%d", cfg.Preset, cfg.Workers, cfg.seed(), cfg.reps())
	suiteCache.Lock()
	defer suiteCache.Unlock()
	if suiteCache.key == key {
		return suiteCache.runs
	}
	rng := rand.New(rand.NewSource(cfg.seed()))
	maxN := proxyMaxN(cfg.Preset)
	reps := cfg.reps()
	var runs []suiteResult
	for _, p := range gen.Table2 {
		a := gen.Proxy(p, maxN, rng)
		st := matrix.ProductStats(a, a)
		res := suiteResult{profile: p, cr: st.CompressionRatio}
		for _, alg := range sortedAlgos {
			mf, _ := timedMultiply(alg, a, a, cfg.Workers, false, reps) // 0 on error
			res.sorted = append(res.sorted, mf)
		}
		ua := gen.Unsorted(a, rng)
		for _, alg := range unsortedAlgos {
			mf, _ := timedMultiply(alg, ua, ua, cfg.Workers, true, reps) // 0 on error
			res.unsorted = append(res.unsorted, mf)
		}
		runs = append(runs, res)
	}
	suiteCache.key = key
	suiteCache.runs = runs
	return runs
}

// runFig14 reproduces Figure 14: MFLOPS of every algorithm on the 26
// SuiteSparse proxies, ordered by compression ratio, with the linear fit
// the paper draws.
func runFig14(cfg Config, w io.Writer) error {
	runs := runSuite(cfg)
	order := make([]int, len(runs))
	crs := make([]float64, len(runs))
	for i, r := range runs {
		order[i] = i
		crs[i] = r.cr
	}
	sortByKey(order, crs)

	fmt.Fprintln(w, "-- sorted track --")
	t := newTable(append([]string{"matrix", "CR"}, names(sortedAlgos)...)...)
	for _, i := range order {
		r := runs[i]
		row := []string{r.profile.Name, f2(r.cr)}
		for _, mf := range r.sorted {
			row = append(row, f1(mf))
		}
		t.add(row...)
	}
	t.write(w, cfg.CSV)
	writeFitLines(w, runs, order, true)

	fmt.Fprintln(w, "-- unsorted track --")
	t = newTable(append([]string{"matrix", "CR"}, namesSuffixed(unsortedAlgos, "(unsorted)")...)...)
	for _, i := range order {
		r := runs[i]
		row := []string{r.profile.Name, f2(r.cr)}
		for _, mf := range r.unsorted {
			row = append(row, f1(mf))
		}
		t.add(row...)
	}
	t.write(w, cfg.CSV)
	writeFitLines(w, runs, order, false)
	fmt.Fprintln(w, "# MFLOPS (higher is better); matrices ordered by measured compression ratio")
	fmt.Fprintln(w, "# expectation (paper): hash leads broadly; heap flat across CR; MKL stand-ins improve with CR")
	return nil
}

func names(algos []contender) []string {
	out := make([]string, len(algos))
	for i, a := range algos {
		out[i] = a.String()
	}
	return out
}

func namesSuffixed(algos []contender, suffix string) []string {
	out := names(algos)
	for i := range out {
		out[i] += suffix
	}
	return out
}

// writeFitLines prints per-algorithm linear fits of MFLOPS over log2(CR),
// the analogue of the fit lines in Figures 14 and 17.
func writeFitLines(w io.Writer, runs []suiteResult, order []int, sorted bool) {
	algos := sortedAlgos
	if !sorted {
		algos = unsortedAlgos
	}
	for ai, alg := range algos {
		var xs, ys []float64
		for _, i := range order {
			var mf float64
			if sorted {
				mf = runs[i].sorted[ai]
			} else {
				mf = runs[i].unsorted[ai]
			}
			if mf > 0 {
				xs = append(xs, log2(runs[i].cr))
				ys = append(ys, mf)
			}
		}
		slope, intercept := linearFit(xs, ys)
		fmt.Fprintf(w, "# fit %-24s MFLOPS ≈ %.1f + %.1f·log2(CR)\n", alg.String(), intercept, slope)
	}
}

func log2(v float64) float64 {
	if v <= 0 {
		return 0
	}
	l := 0.0
	for v >= 2 {
		v /= 2
		l++
	}
	return l + v - 1 // piecewise-linear log2 is fine for fits
}

// runFig15 reproduces Figure 15: Dolan-Moré performance profiles over the
// same runs — for each algorithm, the fraction of problems solved within a
// factor τ of the per-problem best.
func runFig15(cfg Config, w io.Writer) error {
	runs := runSuite(cfg)
	taus := []float64{1, 1.25, 1.5, 2, 2.5, 3, 4, 5}

	emit := func(label string, algos []contender, get func(r suiteResult) []float64) {
		fmt.Fprintf(w, "-- %s track --\n", label)
		// Build time ratios: best MFLOPS / own MFLOPS per problem.
		ratios := make([][]float64, len(algos))
		for _, r := range runs {
			vals := get(r)
			best := 0.0
			for _, v := range vals {
				if v > best {
					best = v
				}
			}
			if best == 0 {
				continue
			}
			for ai, v := range vals {
				if v > 0 {
					ratios[ai] = append(ratios[ai], best/v)
				} else {
					ratios[ai] = append(ratios[ai], inf)
				}
			}
		}
		t := newTable(append([]string{"tau"}, names(algos)...)...)
		for _, tau := range taus {
			row := []string{f2(tau)}
			for ai := range algos {
				n := 0
				for _, rr := range ratios[ai] {
					if rr <= tau {
						n++
					}
				}
				frac := 0.0
				if len(ratios[ai]) > 0 {
					frac = float64(n) / float64(len(ratios[ai]))
				}
				row = append(row, f2(frac))
			}
			t.add(row...)
		}
		t.write(w, cfg.CSV)
	}
	emit("sorted", sortedAlgos, func(r suiteResult) []float64 { return r.sorted })
	emit("unsorted", unsortedAlgos, func(r suiteResult) []float64 { return r.unsorted })
	fmt.Fprintln(w, "# fraction of problems within factor tau of the best algorithm (higher is better)")
	fmt.Fprintln(w, "# expectation (paper): hash dominates the sorted profile; hash/hashvec/mkl-inspector")
	fmt.Fprintln(w, "# share the unsorted lead; kokkos trails")
	return nil
}

const inf = 1e30

// runFig17 reproduces Figure 17: the SpGEMM between the triangular factors
// L·U of the reordered adjacency (triangle counting's wedge-generation
// step), on the Table 2 proxies, sorted algorithms, ordered by the L·U
// compression ratio.
func runFig17(cfg Config, w io.Writer) error {
	rng := rand.New(rand.NewSource(cfg.seed()))
	maxN := proxyMaxN(cfg.Preset)
	reps := cfg.reps()
	type res struct {
		name   string
		cr     float64
		mflops []float64
	}
	var results []res
	for _, p := range gen.Table2 {
		if cfg.Preset != Full && p.N > 5_000_000 && maxN == 0 {
			continue
		}
		a := gen.Proxy(p, maxN, rng)
		prep, err := graph.PrepareTriangles(a)
		if err != nil {
			return err
		}
		st := matrix.ProductStats(prep.L, prep.U)
		r := res{name: p.Name, cr: st.CompressionRatio}
		for _, alg := range sortedAlgos {
			mf, _ := timedMultiply(alg, prep.L, prep.U, cfg.Workers, false, reps) // 0 on error
			r.mflops = append(r.mflops, mf)
		}
		results = append(results, r)
	}
	sort.Slice(results, func(a, b int) bool { return results[a].cr < results[b].cr })
	t := newTable(append([]string{"matrix", "CR(LxU)"}, names(sortedAlgos)...)...)
	for _, r := range results {
		row := []string{r.name, f2(r.cr)}
		for _, mf := range r.mflops {
			row = append(row, f1(mf))
		}
		t.add(row...)
	}
	t.write(w, cfg.CSV)
	fmt.Fprintln(w, "# MFLOPS (higher is better); L·U after degree reordering, output sorted")
	fmt.Fprintln(w, "# expectation (paper): hash/hashvec lead overall; heap best at low compression ratio")
	return nil
}

// runTable2 prints the proxy statistics next to the paper's Table 2 values.
func runTable2(cfg Config, w io.Writer) error {
	rng := rand.New(rand.NewSource(cfg.seed()))
	maxN := proxyMaxN(cfg.Preset)
	t := newTable("matrix", "n", "nnz", "flop", "nnzC", "CR(proxy)", "CR(paper)")
	for _, p := range gen.Table2 {
		a := gen.Proxy(p, maxN, rng)
		st := matrix.ProductStats(a, a)
		t.add(p.Name,
			fmt.Sprintf("%d", a.Rows),
			fmt.Sprintf("%d", a.NNZ()),
			fmt.Sprintf("%d", st.Flop),
			fmt.Sprintf("%d", st.NNZOut),
			f2(st.CompressionRatio),
			f2(p.CompressionRatio()))
	}
	t.write(w, cfg.CSV)
	fmt.Fprintln(w, "# proxies are scaled-down stand-ins preserving degree and compression ratio (DESIGN.md)")
	return nil
}

// runTable4 derives the paper's Table 4 recipe from measured data: for each
// scenario it reports which algorithm won most often.
func runTable4(cfg Config, w io.Writer) error {
	runs := runSuite(cfg)
	t := newTable("scenario", "winner", "paper_says")

	// (a) Real data by compression ratio.
	winHigh := winner(runs, sortedAlgos, func(r suiteResult) ([]float64, bool) { return r.sorted, r.cr > 2 })
	winLow := winner(runs, sortedAlgos, func(r suiteResult) ([]float64, bool) { return r.sorted, r.cr <= 2 })
	t.add("AxA sorted, CR>2", winHigh, "Hash")
	t.add("AxA sorted, CR<=2", winLow, "Hash")
	winHighU := winner(runs, unsortedAlgos, func(r suiteResult) ([]float64, bool) { return r.unsorted, r.cr > 2 })
	winLowU := winner(runs, unsortedAlgos, func(r suiteResult) ([]float64, bool) { return r.unsorted, r.cr <= 2 })
	t.add("AxA unsorted, CR>2", winHighU, "MKL-inspector")
	t.add("AxA unsorted, CR<=2", winLowU, "Hash")

	// (b) Synthetic data: sparse/dense × uniform/skewed.
	rng := rand.New(rand.NewSource(cfg.seed()))
	scale := 10
	if cfg.Preset == Tiny {
		scale = 8
	}
	reps := cfg.reps()
	synth := func(pattern string, ef int) *matrix.CSR {
		if pattern == "uniform" {
			return gen.ER(scale, ef, rng)
		}
		return gen.RMAT(scale, ef, gen.G500Params, rng)
	}
	for _, pattern := range []string{"uniform", "skewed"} {
		for _, ef := range []int{4, 16} {
			density := "sparse"
			if ef > 8 {
				density = "dense"
			}
			a := synth(pattern, ef)
			ua := gen.Unsorted(a, rng)
			best := func(algos []contender, in *matrix.CSR, unsorted bool) string {
				bestName, bestMf := "-", 0.0
				for _, alg := range algos {
					mf, err := timedMultiply(alg, in, in, cfg.Workers, unsorted, reps)
					if err == nil && mf > bestMf {
						bestMf = mf
						bestName = alg.String()
					}
				}
				return bestName
			}
			t.add(fmt.Sprintf("AxA sorted, %s %s", density, pattern), best(sortedAlgos, a, false), paperSynth(true, density, pattern))
			t.add(fmt.Sprintf("AxA unsorted, %s %s", density, pattern), best(unsortedAlgos, ua, true), paperSynth(false, density, pattern))
		}
	}
	t.write(w, cfg.CSV)
	fmt.Fprintln(w, "# winner = algorithm with the best measured MFLOPS in each scenario")
	return nil
}

// paperSynth returns the paper's Table 4(b) cell.
func paperSynth(sorted bool, density, pattern string) string {
	if sorted {
		if density == "dense" && pattern == "skewed" {
			return "Hash"
		}
		return "Heap"
	}
	if density == "dense" && pattern == "skewed" {
		return "Hash"
	}
	return "HashVec"
}

// winner returns the name of the algorithm that wins the most problems in
// the filtered subset.
func winner(runs []suiteResult, algos []contender, get func(r suiteResult) ([]float64, bool)) string {
	wins := make([]int, len(algos))
	any := false
	for _, r := range runs {
		vals, ok := get(r)
		if !ok {
			continue
		}
		bi, bv := -1, 0.0
		for i, v := range vals {
			if v > bv {
				bv = v
				bi = i
			}
		}
		if bi >= 0 {
			wins[bi]++
			any = true
		}
	}
	if !any {
		return "-"
	}
	bi := 0
	for i := range wins {
		if wins[i] > wins[bi] {
			bi = i
		}
	}
	return algos[bi].String()
}

// runHMean reproduces the Section 5.4.4 statistic: the harmonic mean, over
// all proxies, of each algorithm's unsorted-over-sorted speedup. The paper
// reports 1.58x for MKL, 1.63x for Hash and 1.68x for HashVector on KNL.
func runHMean(cfg Config, w io.Writer) error {
	runs := runSuite(cfg)
	pairs := []struct {
		name     string
		sortedI  int // index into sortedAlgos
		unsortI  int // index into unsortedAlgos
		paperVal string
	}{
		{"mkl", 0, 0, "1.58"},
		{"hash", 2, 3, "1.63"},
		{"hashvec", 3, 4, "1.68"},
	}
	t := newTable("algorithm", "hmean_unsorted_speedup", "paper")
	for _, p := range pairs {
		var speedups []float64
		for _, r := range runs {
			s, u := r.sorted[p.sortedI], r.unsorted[p.unsortI]
			if s > 0 && u > 0 {
				speedups = append(speedups, u/s)
			}
		}
		t.add(p.name, f2(harmonicMean(speedups)), p.paperVal)
	}
	t.write(w, cfg.CSV)
	fmt.Fprintln(w, "# speedup of operating unsorted over sorted, harmonic mean across SuiteSparse proxies")
	return nil
}
