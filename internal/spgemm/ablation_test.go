package spgemm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// BenchmarkAblationSortSkip: the Section 5.4.4 design point in isolation —
// identical input, sorted vs unsorted extraction. (The ablations that need a
// baseline — one-phase vs two-phase, balanced vs OpenMP-style schedules —
// live in internal/bench/baseline.)
func BenchmarkAblationSortSkip(b *testing.B) {
	a := gen.RMAT(10, 16, gen.G500Params, rand.New(rand.NewSource(77)))
	for _, unsorted := range []bool{false, true} {
		b.Run(fmt.Sprintf("unsorted=%v", unsorted), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Multiply(a, a, &Options{Algorithm: AlgHash, Unsorted: unsorted}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
