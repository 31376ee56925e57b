// Multi-source BFS as SpGEMM (the paper's Section 5.5 use case): the graph
// is multiplied by a tall-skinny frontier matrix, level by level, over the
// bit-wise or-and semiring: one uint64 column holds 64 of the BFS frontiers.
//
//	go run ./examples/msbfs
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
	rng := rand.New(rand.NewSource(11))
	g := gen.RMAT(13, 16, gen.G500Params, rng)
	// Undirected graph: symmetrize.
	coo := matrix.FromCSR(g)
	coo.Symmetrize()
	adj := coo.ToCSR()
	fmt.Printf("graph: %v\n", adj)

	// 64 simultaneous BFS searches from random sources.
	const k = 64
	sources := make([]int32, k)
	for i := range sources {
		sources[i] = int32(rng.Intn(adj.Rows))
	}

	start := time.Now()
	res, err := graph.MSBFS(adj, sources, &spgemm.Options{Algorithm: spgemm.AlgHash})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	// Level histogram across all searches.
	hist := map[int32]int64{}
	var maxLevel int32
	for _, row := range res.Level {
		for _, l := range row {
			hist[l]++
			if l > maxLevel {
				maxLevel = l
			}
		}
	}
	fmt.Printf("%d BFS searches in %v; reached %d of %d (vertex,source) pairs\n",
		k, elapsed, res.Reached(), int64(adj.Rows)*k)
	for l := int32(0); l <= maxLevel; l++ {
		fmt.Printf("  level %2d: %8d vertices\n", l, hist[l])
	}
	fmt.Printf("  unreached: %d\n", hist[-1])
}
