// Command spgemm multiplies two sparse matrices stored in Matrix Market
// coordinate format and writes the product, reporting timing and structural
// statistics.
//
// Usage:
//
//	spgemm -a A.mtx -b B.mtx -o C.mtx -alg hash
//	spgemm -a A.mtx -square -alg auto -unsorted
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/spgemm"
)

// algNames lists every name -alg accepts, in Algorithm order.
func algNames() string {
	names := make([]string, spgemm.NumAlgorithms)
	for i := range names {
		names[i] = spgemm.Algorithm(i).String()
	}
	return strings.Join(names, "|")
}

func main() {
	var (
		aPath    = flag.String("a", "", "left operand (Matrix Market file)")
		bPath    = flag.String("b", "", "right operand (Matrix Market file)")
		square   = flag.Bool("square", false, "compute A·A (ignore -b)")
		outPath  = flag.String("o", "", "write the product to this file (optional)")
		algName  = flag.String("alg", "auto", "algorithm: "+algNames())
		unsorted = flag.Bool("unsorted", false, "emit unsorted output rows (skips per-row sorting)")
		workers  = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		stats    = flag.Bool("stats", false, "print the per-phase ExecStats breakdown of the multiply")
		debug    = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	)
	flag.Parse()

	if *debug != "" {
		srv, err := obs.StartDebugServer(*debug)
		if err != nil {
			fatalf("%v", err)
		}
		// Graceful shutdown: srv.Close() would truncate a /metrics scrape
		// racing process exit; drain in-flight requests briefly instead.
		defer srv.ShutdownTimeout(2 * time.Second)
		fmt.Fprintf(os.Stderr, "spgemm: debug server on http://%s\n", srv.Addr())
	}

	alg, ok := spgemm.ParseAlgorithm(*algName)
	if !ok {
		fatalf("unknown algorithm %q (want %s)", *algName, algNames())
	}
	if *aPath == "" {
		fatalf("-a is required")
	}
	a := readMatrix(*aPath)
	b := a
	if !*square {
		if *bPath == "" {
			fatalf("-b is required unless -square is given")
		}
		b = readMatrix(*bPath)
	}

	opt := &spgemm.Options{Algorithm: alg, Unsorted: *unsorted, Workers: *workers}
	if *stats {
		opt.Stats = &spgemm.ExecStats{}
	}
	start := time.Now()
	c, err := spgemm.Multiply(a, b, opt)
	if err != nil {
		fatalf("multiply: %v", err)
	}
	elapsed := time.Since(start)

	flop, _ := matrix.Flop(a, b)
	fmt.Printf("A: %v\nB: %v\nC: %v\n", a, b, c)
	fmt.Printf("flop: %d  time: %v  MFLOPS: %.1f", flop, elapsed, 2*float64(flop)/elapsed.Seconds()/1e6)
	if c.NNZ() > 0 {
		fmt.Printf("  compression ratio: %.2f", float64(flop)/float64(c.NNZ()))
	}
	fmt.Println()
	if opt.Stats != nil {
		fmt.Printf("stats: %s\n", opt.Stats)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("create %s: %v", *outPath, err)
		}
		defer f.Close()
		out := c
		if !out.Sorted {
			out = out.Clone()
			out.SortRows()
		}
		if err := matrix.WriteMatrixMarket(f, out); err != nil {
			fatalf("write %s: %v", *outPath, err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
}

func readMatrix(path string) *matrix.CSR {
	f, err := os.Open(path)
	if err != nil {
		fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	m, err := matrix.ReadMatrixMarket(f)
	if err != nil {
		fatalf("parse %s: %v", path, err)
	}
	return m
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spgemm: "+format+"\n", args...)
	os.Exit(1)
}
