// Triangle counting via SpGEMM (the paper's Section 5.6 use case): reorder
// vertices by degree, split the adjacency A = L + U, and count the wedges
// that close — triangles = Σ((L·U) .* L) — with the hash kernel's pattern count.
//
//	go run ./examples/triangles
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/spgemm"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	g := gen.RMAT(13, 16, gen.G500Params, rng)
	fmt.Printf("graph: %v\n", g)

	// Preprocess once (symmetrize, degree-reorder, split L+U), then time
	// the SpGEMM step under different algorithms, as Figure 17 does.
	prep, err := graph.PrepareTriangles(g)
	if err != nil {
		log.Fatal(err)
	}
	st := matrix.ProductStats(prep.L, prep.U)
	fmt.Printf("L: %v  U: %v  flop(LxU)=%d  CR=%.2f\n\n", prep.L, prep.U, st.Flop, st.CompressionRatio)

	var reference int64 = -1
	for alg := spgemm.AlgAuto; int(alg) < spgemm.NumAlgorithms; alg++ {
		start := time.Now()
		count, err := graph.CountFromLU(prep.L, prep.U, &spgemm.Options{Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("%-8s triangles=%-10d time=%-12v MFLOPS=%.1f\n",
			alg, count, elapsed, 2*float64(st.Flop)/elapsed.Seconds()/1e6)
		if reference < 0 {
			reference = count
		} else if count != reference {
			log.Fatalf("algorithms disagree: %d vs %d", count, reference)
		}
	}
	fmt.Println("\nhash (and auto, which resolves to it here) counts the wedges under the L mask, forming no product; the others multiply, then filter")
}
