package accum

import (
	"fmt"
	"math/rand"
	"testing"
)

// Ablation benchmarks for the accumulator design choices DESIGN.md calls
// out: probing scheme, chunk width, table load factor, and reset discipline.

func benchKeys(n int, span int32) []int32 {
	rng := rand.New(rand.NewSource(99))
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(rng.Int31n(span))
	}
	return keys
}

// BenchmarkAblationHashing compares probe behaviour at increasing load
// factors — the cost model behind the paper's collision factor c (Eq. 2).
func BenchmarkAblationHashing(b *testing.B) {
	keys := benchKeys(4096, 1<<20)
	for _, load := range []struct {
		name  string
		bound int64
	}{
		{"load~0.12", 16384}, // capacity 32768, ~4090 distinct keys
		{"load~0.25", 8000},  // capacity 16384
		{"load~1.0", 4000},   // capacity 4096: near-full, worst case
	} {
		b.Run(load.name, func(b *testing.B) {
			h := NewHashTable(load.bound)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Reset()
				for _, k := range keys {
					plusAcc(h, k, 1)
				}
			}
			b.ReportMetric(float64(h.Probes())/float64(h.Lookups()), "probes/op")
		})
	}
}

// BenchmarkAblationChunkWidth sweeps the HashVector chunk width (the
// emulated vector-register width: 8 = AVX2 on Haswell, 16 = AVX-512 on KNL).
func BenchmarkAblationChunkWidth(b *testing.B) {
	keys := benchKeys(4096, 8192)
	for _, w := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			h := NewHashVecTableWidth(8192, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Reset()
				for _, k := range keys {
					plusAcc(h, k, 1)
				}
			}
		})
	}
}

// BenchmarkAblationAccumulators races the four accumulator families on the
// same key stream — the per-operation cost ranking that drives the paper's
// algorithm ranking.
func BenchmarkAblationAccumulators(b *testing.B) {
	keys := benchKeys(8192, 4096)
	run := func(name string, reset func(), acc func(k int32)) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reset()
				for _, k := range keys {
					acc(k)
				}
			}
		})
	}
	h := NewHashTable(8192)
	run("hash", h.Reset, func(k int32) { plusAcc(h, k, 1) })
	hv := NewHashVecTableG[float64](8192)
	run("hashvec", hv.Reset, func(k int32) { plusAcc(hv, k, 1) })
	s := NewSPA(4096)
	run("spa", s.Reset, func(k int32) { plusAcc(s, k, 1) })
	tl := NewTwoLevelHash(0)
	run("twolevel", tl.Reset, func(k int32) { plusAcc(tl, k, 1) })
	m := map[int32]float64{}
	run("gomap", func() { clear(m) }, func(k int32) { m[k] += 1 })
}

// BenchmarkAblationPool contrasts the paper's reuse discipline (allocate
// once, Reset per row) with allocating a fresh table per row.
func BenchmarkAblationPool(b *testing.B) {
	keys := benchKeys(256, 1024)
	b.Run("reuse+reset", func(b *testing.B) {
		h := NewHashTable(1024)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Reset()
			for _, k := range keys {
				plusAcc(h, k, 1)
			}
		}
	})
	b.Run("alloc-per-row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := NewHashTable(1024)
			for _, k := range keys {
				plusAcc(h, k, 1)
			}
		}
	})
}

// BenchmarkSortPairs measures the per-row sorting cost the unsorted mode
// skips.
func BenchmarkSortPairs(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := benchKeys(n, 1<<30)
			cols := make([]int32, n)
			vals := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(cols, src)
				sortPairs(cols, vals)
			}
		})
	}
}
