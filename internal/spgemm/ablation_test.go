package spgemm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/accum"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// Correctness of the one-phase ablation variant.
func TestHashOnePhaseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 15; trial++ {
		a, b := randPair(rng, 35, 0.2)
		want := matrix.NaiveMultiply(a, b)
		for _, unsorted := range []bool{false, true} {
			opt := &OptionsG[float64]{Unsorted: unsorted, Workers: 1 + trial%3}
			got, err := hashOnePhase(semiring.PlusTimesF64{}, a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if !matrix.EqualApprox(want, got, 1e-10) {
				t.Fatalf("trial %d unsorted=%v: one-phase hash wrong", trial, unsorted)
			}
			if !unsorted && !got.IsSortedRows() {
				t.Fatal("sorted request produced unsorted rows")
			}
		}
	}
}

func TestHashOnePhaseSemiring(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	a := matrix.Random(20, 20, 0.3, rng)
	for i := range a.Val {
		a.Val[i] = 1
	}
	got, err := hashOnePhase(semiring.Func{S: semiring.OrAnd()}, a, a, &OptionsG[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.NaiveMultiply(a, a)
	if got.NNZ() != want.NNZ() {
		t.Fatalf("pattern nnz %d, want %d", got.NNZ(), want.NNZ())
	}
	for _, v := range got.Val {
		if v != 1 {
			t.Fatalf("boolean value %v", v)
		}
	}
}

// --- Ablation benchmarks (design choices from DESIGN.md §5) ---------------

var ablFixture struct {
	g500 *matrix.CSR
}

func ablMatrix(b *testing.B) *matrix.CSR {
	b.Helper()
	if ablFixture.g500 == nil {
		rng := rand.New(rand.NewSource(77))
		ablFixture.g500 = gen.RMAT(10, 16, gen.G500Params, rng)
	}
	return ablFixture.g500
}

// BenchmarkAblationPhases: two-phase (symbolic+numeric, exact allocation)
// vs one-phase (upper-bound temp buffers) hash SpGEMM.
func BenchmarkAblationPhases(b *testing.B) {
	a := ablMatrix(b)
	b.Run("two-phase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inspectExecute(semiring.PlusTimesF64{}, AlgHash, a, a, &OptionsG[float64]{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-phase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hashOnePhase(semiring.PlusTimesF64{}, a, a, &OptionsG[float64]{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSchedHash: the paper's balanced schedule vs plain
// static/dynamic/guided for the two-phase hash driver.
func BenchmarkAblationSchedHash(b *testing.B) {
	a := ablMatrix(b)
	for _, s := range []sched.Schedule{sched.Balanced, sched.Static, sched.Dynamic, sched.Guided} {
		b.Run(s.String(), func(b *testing.B) {
			cfg := twoPhaseConfig[float64]{
				schedule: s,
				grain:    16,
				factory: func(ctx *ContextG[float64], w int, bound int64) rowAcc[float64] {
					return accum.NewHashTable(bound)
				},
			}
			for i := 0; i < b.N; i++ {
				if _, err := twoPhase(semiring.PlusTimesF64{}, a, a, &OptionsG[float64]{}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIKJ: the paper's Section 2 claim that the IKJ method is
// "only competitive when flop ≥ n²". A dense-ish small matrix (flop ≫ n²)
// vs a hypersparse one (flop ≪ n²).
func BenchmarkAblationIKJ(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	dense := matrix.Random(256, 256, 0.25, rng)          // flop ≈ 256·64² ≫ n²
	hyper := matrix.RandomWithDegree(4096, 4096, 2, rng) // flop ≈ 4·4096 ≪ n²
	for _, tc := range []struct {
		name string
		m    *matrix.CSR
	}{{"flop>>n2", dense}, {"flop<<n2", hyper}} {
		for _, alg := range []Algorithm{AlgIKJ, AlgHash} {
			b.Run(fmt.Sprintf("%s/%v", tc.name, alg), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Multiply(tc.m, tc.m, &Options{Algorithm: alg}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationSortSkip: the Section 5.4.4 design point in isolation —
// identical input, sorted vs unsorted extraction.
func BenchmarkAblationSortSkip(b *testing.B) {
	a := ablMatrix(b)
	for _, unsorted := range []bool{false, true} {
		b.Run(fmt.Sprintf("unsorted=%v", unsorted), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := inspectExecute(semiring.PlusTimesF64{}, AlgHash, a, a, &OptionsG[float64]{Unsorted: unsorted}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
