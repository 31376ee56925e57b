package repro

// One testing.B benchmark per table/figure of the paper's evaluation. Each
// benchmark exercises exactly the code path the corresponding spgemm-bench
// experiment measures, at a size that completes quickly under
// `go test -bench=. -benchmem`; the spgemm-bench CLI runs the full sweeps.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bench/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/memmodel"
	"repro/internal/mempool"
	"repro/internal/sched"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// fixtures are generated once and shared across benchmarks.
var fixtures struct {
	once     sync.Once
	er       *matrix.CSR // ER scale 10, ef 16
	g500     *matrix.CSR // G500 scale 10, ef 16
	g500u    *matrix.CSR // unsorted variant
	tall     *matrix.CSR // tall-skinny from g500
	proxyLo  *matrix.CSR // low-CR proxy (patents_main)
	proxyHi  *matrix.CSR // high-CR proxy (cant)
	triangle *graph.TriangleResult
}

func fx(b *testing.B) *struct {
	once     sync.Once
	er       *matrix.CSR
	g500     *matrix.CSR
	g500u    *matrix.CSR
	tall     *matrix.CSR
	proxyLo  *matrix.CSR
	proxyHi  *matrix.CSR
	triangle *graph.TriangleResult
} {
	fixtures.once.Do(func() {
		rng := rand.New(rand.NewSource(20180618))
		fixtures.er = gen.ER(10, 16, rng)
		fixtures.g500 = gen.RMAT(10, 16, gen.G500Params, rng)
		fixtures.g500u = gen.Unsorted(fixtures.g500, rng)
		fixtures.tall = gen.TallSkinny(fixtures.g500, 6, rng)
		fixtures.proxyLo = gen.Proxy(*gen.ProfileByName("patents_main"), 1<<12, rng)
		fixtures.proxyHi = gen.Proxy(*gen.ProfileByName("cant"), 1<<11, rng)
		tri, err := graph.PrepareTriangles(fixtures.g500)
		if err != nil {
			panic(err)
		}
		fixtures.triangle = tri
	})
	return &fixtures
}

// reportMFLOPS attaches the paper's metric to a benchmark.
func reportMFLOPS(b *testing.B, a, rhs *matrix.CSR) {
	flop, _ := matrix.Flop(a, rhs)
	b.ReportMetric(2*float64(flop)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MFLOPS")
}

// --- Figure 2: scheduling cost -------------------------------------------

func BenchmarkFig02Scheduling(b *testing.B) {
	for _, s := range []sched.Schedule{sched.Static, sched.Dynamic, sched.Guided} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.ParallelFor(0, 1<<15, s, 1, func(w, lo, hi int) {})
			}
		})
	}
}

// --- Figure 4: allocation schemes -----------------------------------------

func BenchmarkFig04Alloc(b *testing.B) {
	const bytes = 64 << 20
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mempool.MeasureSingle(bytes)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mempool.MeasureParallel(bytes, sched.DefaultWorkers())
		}
	})
}

// --- Figure 5: stanza bandwidth -------------------------------------------

func BenchmarkFig05Stanza(b *testing.B) {
	for _, stanza := range []int{8, 128, 4096} {
		b.Run(fmt.Sprintf("stanza=%dB", stanza), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				memmodel.MeasureStanzaBandwidth(1<<22, []int{stanza}, time.Millisecond)
			}
		})
	}
}

// --- Figure 9: heap scheduling variants -----------------------------------

func BenchmarkFig09HeapSched(b *testing.B) {
	f := fx(b)
	for _, v := range []fmt.Stringer{baseline.HeapStatic, baseline.HeapDynamic, baseline.HeapGuided,
		baseline.HeapBalancedSingle, spgemm.AlgHeap} {
		name := v.String()
		if v == spgemm.AlgHeap {
			name = "balanced parallel" // the paper's final design is the production kernel
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := multiply(v, f.g500, f.g500, false); err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, f.g500, f.g500)
		})
	}
}

// --- Figure 10: MCDRAM model ----------------------------------------------

func BenchmarkFig10MCDRAM(b *testing.B) {
	f := fx(b)
	ddr := memmodel.DefaultDDR
	mc := memmodel.MCDRAMFrom(ddr)
	b.Run("collect+model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := spgemm.CollectAccessStats(f.g500, f.g500, 0)
			_ = memmodel.ModeledSpeedup(st, ddr, mc, memmodel.StanzaReads)
			_ = memmodel.ModeledSpeedup(st, ddr, mc, memmodel.FineGrained)
		}
	})
}

// --- Figures 11/12: A² across algorithms (density/size scaling) -----------

// multiply runs one curve of a figure: a spgemm.Algorithm (production
// kernel) or a baseline.Kind (stand-in for a library the paper compares to).
func multiply(alg fmt.Stringer, a, b *matrix.CSR, unsorted bool) (*matrix.CSR, error) {
	if k, ok := alg.(baseline.Kind); ok {
		return baseline.Multiply(k, a, b, &baseline.Options{Unsorted: unsorted})
	}
	return spgemm.Multiply(a, b, &spgemm.Options{Algorithm: alg.(spgemm.Algorithm), Unsorted: unsorted})
}

func benchSquare(b *testing.B, a *matrix.CSR, alg fmt.Stringer, unsorted bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := multiply(alg, a, a, unsorted); err != nil {
			b.Fatal(err)
		}
	}
	reportMFLOPS(b, a, a)
}

// sortedTrack and unsortedTrack are the contenders of the paper's two
// evaluation tracks (Section 5).
var (
	sortedTrack   = []fmt.Stringer{baseline.MKL, spgemm.AlgHeap, spgemm.AlgHash, baseline.HashVec}
	unsortedTrack = []fmt.Stringer{baseline.MKL, baseline.MKLInspector, baseline.Kokkos, spgemm.AlgHash, baseline.HashVec}
)

func BenchmarkFig11Density(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, ef := range []int{4, 16} {
		a := gen.RMAT(10, ef, gen.G500Params, rng)
		for _, alg := range sortedTrack {
			b.Run(fmt.Sprintf("ef=%d/%v", ef, alg), func(b *testing.B) { benchSquare(b, a, alg, false) })
		}
	}
}

func BenchmarkFig12Scale(b *testing.B) {
	f := fx(b)
	for _, tc := range []struct {
		name string
		m    *matrix.CSR
	}{{"ER", f.er}, {"G500", f.g500}} {
		for _, alg := range sortedTrack {
			b.Run(fmt.Sprintf("%s/%v/sorted", tc.name, alg), func(b *testing.B) { benchSquare(b, tc.m, alg, false) })
		}
	}
	// The unsorted track (permuted inputs, unsorted output).
	for _, alg := range unsortedTrack {
		b.Run(fmt.Sprintf("G500/%v/unsorted", alg), func(b *testing.B) { benchSquare(b, f.g500u, alg, true) })
	}
}

// --- Figure 13: thread scaling --------------------------------------------

func BenchmarkFig13Threads(b *testing.B) {
	f := fx(b)
	for _, th := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("hash/threads=%d", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spgemm.Multiply(f.g500, f.g500, &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: th}); err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, f.g500, f.g500)
		})
	}
}

// --- Figures 14/15 and Table 2: SuiteSparse proxies -----------------------

func BenchmarkFig14Suite(b *testing.B) {
	f := fx(b)
	for _, tc := range []struct {
		name string
		m    *matrix.CSR
	}{{"lowCR=patents_main", f.proxyLo}, {"highCR=cant", f.proxyHi}} {
		for _, alg := range sortedTrack {
			b.Run(fmt.Sprintf("%s/%v", tc.name, alg), func(b *testing.B) { benchSquare(b, tc.m, alg, false) })
		}
	}
}

// --- Figure 16: square × tall-skinny --------------------------------------

func BenchmarkFig16TallSkinny(b *testing.B) {
	f := fx(b)
	for _, alg := range []fmt.Stringer{spgemm.AlgHeap, spgemm.AlgHash, baseline.HashVec} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := multiply(alg, f.g500, f.tall, false); err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, f.g500, f.tall)
		})
	}
}

// --- Figure 17: triangle counting L·U --------------------------------------

func BenchmarkFig17Triangle(b *testing.B) {
	f := fx(b)
	for _, alg := range sortedTrack {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if k, ok := alg.(baseline.Kind); ok {
					// A library without masks: form L·U, then filter by L.
					var lu *matrix.CSR
					if lu, err = baseline.Multiply(k, f.triangle.L, f.triangle.U, nil); err == nil {
						_, err = matrix.Hadamard(lu, f.triangle.L)
					}
				} else {
					_, err = graph.CountFromLU(f.triangle.L, f.triangle.U, &spgemm.Options{Algorithm: alg.(spgemm.Algorithm)})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, f.triangle.L, f.triangle.U)
		})
	}
}

// --- Generic value/semiring layer: narrow-value bandwidth ------------------

// The monomorphized kernels run unchanged over narrower value types, cutting
// value-array traffic 2x (float32) and 8x (bool) against float64.
// ReportAllocs attaches B/op so the footprint shift is visible without
// -benchmem; the f64 subbenchmarks are the in-place baseline.

func BenchmarkGenericF32Square(b *testing.B) {
	f := fx(b)
	a32 := matrix.MapValues(f.g500, func(v float64) float32 { return float32(v) })
	b.Run("hash/f64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spgemm.MultiplyRing(semiring.PlusTimesF64{}, f.g500, f.g500, &spgemm.OptionsG[float64]{Algorithm: spgemm.AlgHash}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, f.g500, f.g500)
	})
	b.Run("hash/f32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spgemm.MultiplyRing(semiring.PlusTimesF32{}, a32, a32, &spgemm.OptionsG[float32]{Algorithm: spgemm.AlgHash}); err != nil {
				b.Fatal(err)
			}
		}
		// Same structure as the f64 track, so the flop count carries over.
		reportMFLOPS(b, f.g500, f.g500)
	})
}

func BenchmarkGenericPackedMSBFS(b *testing.B) {
	f := fx(b)
	sources := []int32{0, 7, 42, 99, 512, 777, 900, 1013}
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graph.MSBFS(f.g500, sources, &spgemm.Options{Algorithm: spgemm.AlgHash}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Section 5.4.4: sorted vs unsorted ------------------------------------

func BenchmarkUnsortedSpeedup(b *testing.B) {
	f := fx(b)
	b.Run("hash/sorted", func(b *testing.B) { benchSquare(b, f.g500, spgemm.AlgHash, false) })
	b.Run("hash/unsorted", func(b *testing.B) { benchSquare(b, f.g500u, spgemm.AlgHash, true) })
}

// --- Table 4: the recipe's auto-selection overhead -------------------------

func BenchmarkTable4AutoSelect(b *testing.B) {
	f := fx(b)
	b.Run("recommend", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = spgemm.Recommend(f.g500, f.g500, true, spgemm.UseSquare)
		}
	})
	b.Run("auto-multiply", func(b *testing.B) { benchSquare(b, f.g500, spgemm.AlgAuto, false) })
}
