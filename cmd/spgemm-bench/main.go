// Command spgemm-bench regenerates the tables and figures of Nagasaka et
// al., "High-Performance Sparse Matrix-Matrix Products on Intel KNL and
// Multicore Architectures" (ICPP 2018).
//
// Usage:
//
//	spgemm-bench -list
//	spgemm-bench -exp fig11
//	spgemm-bench -exp all -preset quick -csv
//	spgemm-bench -exp fig8 -preset tiny
//
// Presets: tiny (seconds, CI-sized), quick (default, minutes), full
// (paper-scale inputs; hours and tens of GiB for the largest proxies).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (fig2..fig17, table2, table4, hmean, all)")
		preset    = flag.String("preset", "quick", "workload preset: tiny|quick|full")
		workers   = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		seed      = flag.Int64("seed", 0, "generator seed (0 = default)")
		reps      = flag.Int("reps", 0, "timing repetitions (0 = preset default)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned columns")
		list      = flag.Bool("list", false, "list experiments and exit")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spgemm-bench:", err)
			os.Exit(1)
		}
		// Graceful shutdown: srv.Close() would truncate a /metrics scrape
		// racing process exit; drain in-flight requests briefly instead.
		defer srv.ShutdownTimeout(2 * time.Second)
		fmt.Fprintf(os.Stderr, "spgemm-bench: debug server on http://%s\n", srv.Addr())
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "spgemm-bench: -exp is required (or -list); try -exp all")
		flag.Usage()
		os.Exit(2)
	}
	p, err := bench.ParsePreset(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := bench.Config{Preset: p, Workers: *workers, Seed: *seed, Reps: *reps, CSV: *csv}
	bench.Environment(os.Stdout)
	if err := bench.Run(*exp, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spgemm-bench:", err)
		os.Exit(1)
	}
}
