package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/spgemm"
)

// BenchmarkHeapVsHashByCell is the harness behind EXPERIMENTS.md's "Heap vs
// Hash by recipe cell" table: for every point of the three Table 4 cells the
// paper gives to Heap (uniform sparse square, skewed sparse square, L·U),
// all sorted in and out, b.N rounds each time one-shot Hash, one-shot Heap, a
// Hash Plan replay and a Heap Plan replay on warm Contexts, rotating which
// goes first. Run with a fixed round count, e.g.
//
//	go test ./internal/bench -run '^$' -bench HeapVsHashByCell -benchtime 20x
//
// Reported per point: the median over rounds of heap/hash and of the two
// replay ratios, how many rounds Heap won (of b.N), and whether the recipe
// answers Heap there (auto_heap 1 or 0) — spgemm's heapMaxEF is the largest
// edge factor whose uniform points, taken together, Heap wins nine rounds of
// ten on.
func BenchmarkHeapVsHashByCell(b *testing.B) {
	type point struct {
		name string
		uc   spgemm.UseCase
		gen  func(rng *rand.Rand) (a, b *matrix.CSR)
	}
	square := func(m *matrix.CSR) (a, b *matrix.CSR) { return m, m }
	var points []point
	for _, scale := range []int{12, 14, 16} {
		for _, ef := range []int{1, 2, 3, 4, 5, 8} {
			points = append(points, point{fmt.Sprintf("uniform/er-s%d-ef%d", scale, ef), spgemm.UseSquare,
				func(rng *rand.Rand) (a, b *matrix.CSR) { return square(gen.ER(scale, ef, rng)) }})
		}
	}
	for _, d := range []int{2, 3, 4, 5} {
		for _, hw := range []int{8, 1024} {
			points = append(points, point{fmt.Sprintf("uniform/band32k-d%d-hw%d", d, hw), spgemm.UseSquare,
				func(rng *rand.Rand) (a, b *matrix.CSR) { return square(gen.SpreadBand(1<<15, d, hw, rng)) }})
		}
	}
	for _, scale := range []int{12, 14, 16} {
		for _, ef := range []int{2, 4, 8} {
			if scale == 16 && ef == 8 {
				continue // minutes per Heap multiply: an hour of rounds for a point two scales already settle
			}
			points = append(points, point{fmt.Sprintf("skewed/g500-s%d-ef%d", scale, ef), spgemm.UseSquare,
				func(rng *rand.Rand) (a, b *matrix.CSR) { return square(gen.RMAT(scale, ef, gen.G500Params, rng)) }})
		}
	}
	for _, in := range []struct {
		name string
		gen  func(rng *rand.Rand) *matrix.CSR
	}{
		{"g500-s14-ef4", func(rng *rand.Rand) *matrix.CSR { return gen.RMAT(14, 4, gen.G500Params, rng) }},
		{"er-s14-ef4", func(rng *rand.Rand) *matrix.CSR { return gen.ER(14, 4, rng) }},
		{"er-s14-ef16", func(rng *rand.Rand) *matrix.CSR { return gen.ER(14, 16, rng) }},
	} {
		points = append(points, point{"lu/" + in.name, spgemm.UseTriangle, func(rng *rand.Rand) (l, u *matrix.CSR) {
			tri, err := graph.PrepareTriangles(in.gen(rng))
			if err != nil {
				b.Fatal(err)
			}
			return tri.L, tri.U
		}})
	}

	for _, pt := range points {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/W=%d", pt.name, workers), func(b *testing.B) {
				ma, mb := pt.gen(rand.New(rand.NewSource(20180618)))
				var run [4]func() error // hash, heap, hash replay, heap replay
				for k, alg := range []spgemm.Algorithm{spgemm.AlgHash, spgemm.AlgHeap} {
					opt := &spgemm.Options{Algorithm: alg, Workers: workers, Context: spgemm.NewContext()}
					run[k] = func() error { _, err := spgemm.Multiply(ma, mb, opt); return err }
					pctx := spgemm.NewContext()
					plan, err := spgemm.NewPlan(ma, mb, &spgemm.Options{Algorithm: alg, Workers: workers, Context: pctx})
					if err != nil {
						b.Fatal(err)
					}
					run[2+k] = func() error { _, err := plan.ExecuteIn(pctx, nil); return err }
				}
				// One timed sample is calls multiplies back to back: three, or
				// as many as fill 100 ms, so that a scheduler hiccup weighs
				// little on a 0.3 ms product and on a 300 ms one alike.
				calls := 1
				sample := func(k int) float64 {
					start := time.Now()
					for c := 0; c < calls; c++ {
						if err := run[k](); err != nil {
							b.Fatal(err)
						}
					}
					return time.Since(start).Seconds()
				}
				for k := range run {
					sample(k) // warm every Context
				}
				calls = max(3, min(512, int(0.100/sample(0))))
				var heapHash, replayHeap, replayReplay []float64
				wins := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var t [4]float64
					for j := range run {
						k := (i + j) % len(run)
						t[k] = sample(k)
					}
					heapHash = append(heapHash, t[1]/t[0])
					replayHeap = append(replayHeap, t[3]/t[1])
					replayReplay = append(replayReplay, t[3]/t[2])
					if t[1] < t[0] {
						wins++
					}
				}
				b.ReportMetric(median(heapHash), "heap/hash")
				b.ReportMetric(float64(wins), "heap_wins")
				b.ReportMetric(median(replayHeap), "heapplan/heap")
				b.ReportMetric(median(replayReplay), "heapplan/hashplan")
				auto := 0.0
				if spgemm.Recommend(ma, mb, true, pt.uc) == spgemm.AlgHeap {
					auto = 1
				}
				b.ReportMetric(auto, "auto_heap")
			})
		}
	}
}

func median(x []float64) float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
