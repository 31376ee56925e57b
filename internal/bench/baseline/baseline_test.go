package baseline

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/accum"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/spgemm"
	"repro/internal/spgemm/difftest"
)

// TestKindsMatchNaive is the baselines' whole correctness contract: every
// kind, sorted and unsorted output, over the three input families the
// figures draw (uniform, skewed, square × tall-skinny) plus unsorted inputs,
// against the NaiveMultiply oracle at the differential harness's tolerance,
// with stats on so the instrumented paths run too. The Figure 9 Heap kinds
// merge sorted streams: they refuse an unsorted B, emit sorted rows whatever
// the request, and count heap pushes.
func TestKindsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20180618))
	er := gen.ER(7, 4, rng)
	g500 := gen.RMAT(7, 8, gen.G500Params, rng)
	inputs := []struct {
		name string
		a, b *matrix.CSR
	}{
		{"ER", er, er},
		{"G500", g500, g500},
		{"tall-skinny", g500, gen.TallSkinny(g500, 3, rng)},
		{"G500-unsorted", gen.Unsorted(g500, rng), gen.Unsorted(g500, rng)},
		{"empty", matrix.NewCSR(5, 4), matrix.NewCSR(4, 6)},
	}
	for k := Kind(0); k < NumKinds; k++ {
		heap := k >= HeapStatic && k <= HeapBalancedSingle
		for _, unsorted := range []bool{false, true} {
			name := k.String() + "/sorted"
			if unsorted {
				name = k.String() + "/unsorted"
			}
			t.Run(name, func(t *testing.T) {
				for _, in := range inputs {
					for _, workers := range []int{1, 3} {
						var st spgemm.ExecStats
						got, err := Multiply(k, in.a, in.b, &Options{Workers: workers, Unsorted: unsorted, Stats: &st})
						if heap && !in.b.Sorted {
							if err == nil {
								t.Fatalf("%s: accepted unsorted input instead of rejecting it", in.name)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s: %v", in.name, err)
						}
						if err := difftest.Equivalent(got, matrix.NaiveMultiply(in.a, in.b)); err != nil {
							t.Fatalf("%s workers=%d: %v", in.name, workers, err)
						}
						if got.Sorted != (heap || !unsorted) {
							t.Fatalf("%s: Sorted=%v for unsorted=%v", in.name, got.Sorted, unsorted)
						}
						flop, _ := matrix.Flop(in.a, in.b)
						tot := st.TotalWorker()
						if tot.Rows != int64(in.a.Rows) || tot.Flop != flop {
							t.Errorf("%s workers=%d: stats rows=%d flop=%d, want %d and %d", in.name, workers, tot.Rows, tot.Flop, in.a.Rows, flop)
						}
						if heap {
							// One push per non-empty contributing row of B —
							// what the production kernel counts on the same pair.
							var prod spgemm.ExecStats
							if _, err := spgemm.Multiply(in.a, in.b, &spgemm.Options{Algorithm: spgemm.AlgHeap, Workers: workers, Stats: &prod}); err != nil {
								t.Fatalf("%s: spgemm heap: %v", in.name, err)
							}
							if want := prod.TotalWorker().HeapPushes; tot.HeapPushes != want {
								t.Errorf("%s workers=%d: %d heap pushes, want %d", in.name, workers, tot.HeapPushes, want)
							}
						}
						if st.PhaseSum() > st.Total {
							t.Errorf("%s: PhaseSum %v > Total %v", in.name, st.PhaseSum(), st.Total)
						}
						if tot.Busy <= 0 || tot.Busy > time.Duration(workers)*st.Total {
							t.Errorf("%s workers=%d: Σ Busy %v, want in (0, W·Total %v]", in.name, workers, tot.Busy, time.Duration(workers)*st.Total)
						}
					}
				}
			})
		}
	}
	if _, err := Multiply(MKL, er, matrix.NewCSR(3, 3), nil); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := Multiply(NumKinds, er, er, nil); err == nil || NumKinds.String() != "unknown" {
		t.Error("unknown kind accepted")
	}
}

// --- Ablation benchmarks (design choices from DESIGN.md §5) ---------------

func ablMatrix() *matrix.CSR {
	return gen.RMAT(10, 16, gen.G500Params, rand.New(rand.NewSource(77)))
}

// BenchmarkAblationPhases: two-phase (symbolic+numeric, exact allocation)
// vs one-phase (upper-bound temp buffers) hash SpGEMM.
func BenchmarkAblationPhases(b *testing.B) {
	a := ablMatrix()
	b.Run("two-phase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := spgemm.Multiply(a, a, &spgemm.Options{Algorithm: spgemm.AlgHash}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-phase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashOnePhase(a, a, &Options{})
		}
	})
}

// BenchmarkAblationSchedHash: the paper's balanced schedule vs plain
// static/dynamic/guided for a two-phase hash driver.
func BenchmarkAblationSchedHash(b *testing.B) {
	a := ablMatrix()
	for _, s := range []sched.Schedule{sched.Balanced, sched.Static, sched.Dynamic, sched.Guided} {
		b.Run(s.String(), func(b *testing.B) {
			cfg := twoPhaseConfig{
				schedule: s,
				grain:    16,
				factory:  func(bound int64) rowAcc { return accum.NewHashTable(bound) },
			}
			for i := 0; i < b.N; i++ {
				twoPhase(a, a, &Options{}, cfg)
			}
		})
	}
}
