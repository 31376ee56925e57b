// Quickstart: generate a sparse matrix, square it with the optimized Hash
// SpGEMM, and compare the algorithms on the same input.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/spgemm"
)

func main() {
	// A scale-12 Graph500 matrix: 4096 rows, ~16 nonzeros per row, with
	// the skewed degree distribution real graphs have.
	rng := rand.New(rand.NewSource(42))
	a := gen.RMAT(12, 16, gen.G500Params, rng)
	fmt.Printf("input: %v (mean degree %.1f)\n", a, a.AvgRowNNZ())

	// The one-call API: C = A·A with the algorithm chosen by the paper's
	// recipe (Table 4).
	c, err := spgemm.Multiply(a, a, &spgemm.Options{Algorithm: spgemm.AlgAuto})
	if err != nil {
		log.Fatal(err)
	}
	flop, _ := matrix.Flop(a, a)
	fmt.Printf("C = A*A: %v, compression ratio %.2f\n\n", c, float64(flop)/float64(c.NNZ()))

	// Compare every algorithm on the same product, sorted and unsorted.
	fmt.Printf("%-14s %12s %12s\n", "algorithm", "sorted", "unsorted")
	for alg := spgemm.AlgHash; int(alg) < spgemm.NumAlgorithms; alg++ {
		fmt.Printf("%-14s %12s %12s\n", alg, run(a, alg, false), run(a, alg, true))
	}
	fmt.Println("\ncells are MFLOPS; '-' = mode unsupported (heap cannot skip sorting)")
}

func run(a *matrix.CSR, alg spgemm.Algorithm, unsorted bool) string {
	if unsorted && !spgemm.SupportsUnsorted(alg) {
		return "-"
	}
	flop, _ := matrix.Flop(a, a)
	start := time.Now()
	if _, err := spgemm.Multiply(a, a, &spgemm.Options{Algorithm: alg, Unsorted: unsorted}); err != nil {
		return "err"
	}
	return fmt.Sprintf("%.1f", 2*float64(flop)/time.Since(start).Seconds()/1e6)
}
