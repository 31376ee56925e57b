// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 3 microbenchmarks and Section 5
// SpGEMM studies). Each experiment prints the same rows/series the paper
// plots, so paper-vs-measured comparisons are direct; EXPERIMENTS.md records
// the outcomes.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench/baseline"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/spgemm"
)

// Preset scales workloads: Tiny for unit tests, Quick for a laptop-class
// single run (the default), Full for paper-scale inputs (hours, and >64 GiB
// for the largest proxies).
type Preset int

const (
	Quick Preset = iota
	Tiny
	Full
)

// ParsePreset maps a CLI string to a Preset.
func ParsePreset(s string) (Preset, error) {
	switch s {
	case "", "quick":
		return Quick, nil
	case "tiny":
		return Tiny, nil
	case "full":
		return Full, nil
	}
	return Quick, fmt.Errorf("bench: unknown preset %q (want tiny|quick|full)", s)
}

// Config controls an experiment run.
type Config struct {
	Preset  Preset
	Workers int   // 0 = GOMAXPROCS
	Seed    int64 // RNG seed for generators
	Reps    int   // timing repetitions; 0 picks a preset default
	CSV     bool  // emit comma-separated values instead of aligned columns
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return sched.DefaultWorkers()
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 20180618 // arXiv v2 date of the paper
}

func (c Config) reps() int {
	if c.Reps > 0 {
		return c.Reps
	}
	switch c.Preset {
	case Tiny:
		return 1
	case Full:
		return 10 // the paper: "average of ten SpGEMM runs"
	default:
		return 3
	}
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig2", "OpenMP-style scheduling cost vs iteration count (Figure 2)", runFig2},
		{"fig4", "Memory deallocation cost, single vs parallel (Figure 4)", runFig4},
		{"fig5", "Stanza bandwidth: DDR measured, MCDRAM modeled (Figure 5)", runFig5},
		{"fig8", "Per-phase time breakdown with ExecStats (Figure 8)", runFig8},
		{"fig9", "Heap SpGEMM scheduling variants on G500 (Figure 9)", runFig9},
		{"fig10", "Modeled MCDRAM speedup vs edge factor (Figure 10)", runFig10},
		{"fig11", "Scaling with density, ER and G500 (Figure 11)", runFig11},
		{"fig12", "Scaling with input size, ER and G500 (Figure 12)", runFig12},
		{"fig13", "Strong scaling with thread count (Figure 13)", runFig13},
		{"fig14", "SuiteSparse proxies: MFLOPS vs compression ratio (Figure 14)", runFig14},
		{"fig15", "Performance profiles over SuiteSparse proxies (Figure 15)", runFig15},
		{"fig16", "Square x tall-skinny SpGEMM (Figure 16)", runFig16},
		{"fig17", "Triangle counting LxU vs compression ratio (Figure 17)", runFig17},
		{"table2", "Matrix statistics: proxies vs paper (Table 2)", runTable2},
		{"table4", "Best-algorithm recipe from measured runs (Table 4)", runTable4},
		{"hmean", "Harmonic-mean unsorted speedup (Section 5.4.4)", runHMean},
	}
}

// Find returns the experiment with the given id, or nil.
func Find(id string) *Experiment {
	for _, e := range Registry() {
		if e.ID == id {
			exp := e
			return &exp
		}
	}
	return nil
}

// Run executes one experiment by id ("all" runs the whole registry).
func Run(id string, cfg Config, w io.Writer) error {
	if id == "all" {
		for _, e := range Registry() {
			fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
			if err := e.Run(cfg, w); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	e := Find(id)
	if e == nil {
		return fmt.Errorf("bench: unknown experiment %q", id)
	}
	fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
	return e.Run(cfg, w)
}

// Environment prints the host configuration (the analogue of the paper's
// Table 3).
func Environment(w io.Writer) {
	fmt.Fprintf(w, "go: %s  os/arch: %s/%s  cpus: %d  gomaxprocs: %d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// ---------------------------------------------------------------------------
// Timing and metric helpers
// ---------------------------------------------------------------------------

// timeAvg runs f reps times and returns the mean duration.
func timeAvg(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	var total time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		f()
		total += time.Since(start)
	}
	return total / time.Duration(reps)
}

// mflops converts a flop count and duration to the paper's MFLOPS metric
// (2·flop for multiply+add, per the SpGEMM convention).
func mflops(flop int64, d time.Duration) float64 {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return 2 * float64(flop) / s / 1e6
}

// contender is one curve of a figure: a spgemm.Algorithm (a production
// kernel) or a baseline.Kind (a stand-in the paper compares against). Both
// print their column name.
type contender = fmt.Stringer

// multiply runs contender c once.
func multiply(c contender, a, b *matrix.CSR, workers int, unsorted bool, st *spgemm.ExecStats) (*matrix.CSR, error) {
	switch c := c.(type) {
	case spgemm.Algorithm:
		return spgemm.Multiply(a, b, &spgemm.Options{Algorithm: c, Workers: workers, Unsorted: unsorted, Stats: st})
	case baseline.Kind:
		return baseline.Multiply(c, a, b, &baseline.Options{Workers: workers, Unsorted: unsorted, Stats: st})
	}
	return nil, fmt.Errorf("bench: %v is neither an algorithm nor a baseline", c)
}

// timedMultiply runs one timed SpGEMM and returns MFLOPS. Errors (e.g. an
// algorithm rejecting unsorted input) surface to the caller.
func timedMultiply(c contender, a, b *matrix.CSR, workers int, unsorted bool, reps int) (float64, error) {
	flop, _ := matrix.Flop(a, b)
	var err error
	d := timeAvg(reps, func() {
		if _, e := multiply(c, a, b, workers, unsorted, nil); e != nil {
			err = e
		}
	})
	if err != nil {
		return 0, err
	}
	return mflops(flop, d), nil
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

// table accumulates rows and renders either aligned columns or CSV.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer, csv bool) {
	if csv {
		writeCSVRow(w, t.header)
		for _, r := range t.rows {
			writeCSVRow(w, r)
		}
		return
	}
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeAligned(w, t.header, widths)
	for _, r := range t.rows {
		writeAligned(w, r, widths)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

func writeAligned(w io.Writer, cells []string, widths []int) {
	for i, c := range cells {
		pad := 0
		if i < len(widths) {
			pad = widths[i] - len(c)
		}
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprint(w, c)
		for p := 0; p < pad; p++ {
			fmt.Fprint(w, " ")
		}
	}
	fmt.Fprintln(w)
}

// f1, f2 format floats compactly for tables.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// linearFit returns slope and intercept of y over x (least squares), used
// for the fit lines the paper draws in Figures 14 and 17.
func linearFit(x, y []float64) (slope, intercept float64) {
	n := float64(len(x))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / denom
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// harmonicMean returns the harmonic mean of positive values.
func harmonicMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var inv float64
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		inv += 1 / v
	}
	return float64(len(vs)) / inv
}

// sortByKey sorts idx so that key[idx[i]] ascends.
func sortByKey(idx []int, key []float64) {
	sort.Slice(idx, func(a, b int) bool { return key[idx[a]] < key[idx[b]] })
}
