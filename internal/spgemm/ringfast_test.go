package spgemm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/accum"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// Tests and benchmarks for the hand-devirtualized float64 plus-times fast
// paths (ringfast.go). The equivalence tests force the generic dictionary
// path by using a ring type the fast path does not recognize and require
// bit-identical output; BenchmarkMultiply is the kernel-level before/after
// benchmark quoted in EXPERIMENTS.md.

const ringfastWorkers = 8

var ringfastFixture struct {
	once sync.Once
	er   *matrix.CSR // uniform
	g500 *matrix.CSR // power-law: a few heavy rows
}

func ringfastMatrices() (*matrix.CSR, *matrix.CSR) {
	ringfastFixture.once.Do(func() {
		rng := rand.New(rand.NewSource(20180618))
		ringfastFixture.er = gen.ER(13, 16, rng)
		ringfastFixture.g500 = gen.RMAT(12, 16, gen.G500Params, rng)
	})
	return ringfastFixture.er, ringfastFixture.g500
}

// slowPlusTimesF64 is plus-times float64 as an anonymous ring type the fast
// path cannot recognize, pinning the generic dictionary-call code path.
type slowPlusTimesF64 struct{}

func (slowPlusTimesF64) Add(a, b float64) float64 { return a + b }
func (slowPlusTimesF64) Mul(a, b float64) float64 { return a * b }
func (slowPlusTimesF64) Zero() float64            { return 0 }

// TestRingFastEquivalence checks that the devirtualized float64 plus-times
// kernels — one-shot and as a Plan replay — produce bit-identical output to
// the generic path, sorted and unsorted, for every kernel that runs the
// whole-row hash functions: on a uniform and a skewed input (rows fold
// through the table), on two compression-ratio-1 products, a thin ER square
// and a permutation times ER (unsorted rows are concatenated), and on the
// skewed input times a hypersparse B wide enough (Cols > flop) that its heavy
// rows fold through the hash table rather than the SPA.
func TestRingFastEquivalence(t *testing.T) {
	er, g500 := ringfastMatrices()
	rng := rand.New(rand.NewSource(20180619))
	thin := gen.Unsorted(gen.ER(13, 2, rng), rng)
	perm := matrix.Identity(er.Rows).PermuteRows(rng.Perm(er.Rows))
	wide := matrix.RandomWithDegree(g500.Cols, 1<<22, 4, rng)
	for _, alg := range []Algorithm{AlgHash, AlgHashVec, AlgSharded} {
		for _, m := range []struct {
			name string
			a, b *matrix.CSR
		}{{"ER", er, er}, {"G500", g500, g500}, {"ER-CR1", thin, thin}, {"Perm", perm, er}, {"G500-heavy", g500, wide}} {
			for _, unsorted := range []bool{false, true} {
				name := fmt.Sprintf("%v/%s/unsorted=%v", alg, m.name, unsorted)
				t.Run(name, func(t *testing.T) {
					var st ExecStats
					opt := &Options{Algorithm: alg, Workers: ringfastWorkers, Unsorted: unsorted, Stats: &st}
					fast, err := Multiply(m.a, m.b, opt)
					if err != nil {
						t.Fatal(err)
					}
					if m.b == wide && st.TotalWorker().HashLookups == 0 {
						t.Fatal("the wide product's rows did not fold through the hash table")
					}
					slow, err := MultiplyRing[float64, slowPlusTimesF64](slowPlusTimesF64{}, m.a, m.b, &OptionsG[float64]{Algorithm: alg, Workers: ringfastWorkers, Unsorted: unsorted})
					if err != nil {
						t.Fatal(err)
					}
					requireSameCSR(t, slow, fast)
					plan, err := NewPlan(m.a, m.b, opt)
					if err != nil {
						t.Fatal(err)
					}
					replay, err := plan.Execute()
					if err != nil {
						t.Fatal(err)
					}
					requireSameCSR(t, slow, replay)
				})
			}
		}
	}
}

func requireSameCSR[V semiring.Value](t *testing.T, want, got *matrix.CSRG[V]) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("shape mismatch: want %dx%d, got %dx%d", want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := 0; i <= want.Rows; i++ {
		if want.RowPtr[i] != got.RowPtr[i] {
			t.Fatalf("rowPtr[%d]: want %d, got %d", i, want.RowPtr[i], got.RowPtr[i])
		}
	}
	nnz := want.RowPtr[want.Rows]
	for p := int64(0); p < nnz; p++ {
		if want.ColIdx[p] != got.ColIdx[p] {
			t.Fatalf("colIdx[%d]: want %d, got %d", p, want.ColIdx[p], got.ColIdx[p])
		}
		if want.Val[p] != got.Val[p] {
			t.Fatalf("val[%d]: want %v, got %v (not bit-identical)", p, want.Val[p], got.Val[p])
		}
	}
}

// TestRingFastSelection pins the dispatch contract: the float64 plus-times
// flagship selects the fast path, every other ring stays generic.
func TestRingFastSelection(t *testing.T) {
	er, _ := ringfastMatrices()
	table := accum.NewHashTable(16)
	if _, _, _, _, _, ok := ptF64Hash(semiring.PlusTimesF64{}, er, er, nil, table, er.Val); !ok {
		t.Fatal("PlusTimesF64 over *matrix.CSR must select the hash fast path")
	}
	if _, _, fs, _, _, ok := ptF64Hash(semiring.PlusTimesF64{}, er, er, accum.NewSPA(er.Cols), nil, er.Val); !ok || fs == nil {
		t.Fatal("PlusTimesF64 over *matrix.CSR must select the SPA fast path")
	}
	if _, _, _, _, _, ok := ptF64Hash(slowPlusTimesF64{}, er, er, nil, table, er.Val); ok {
		t.Fatal("a foreign ring type must not select the fast path")
	}
	if _, _, _, _, _, ok := ptF64Hash(semiring.MaxTimesF64{}, er, er, nil, table, er.Val); ok {
		t.Fatal("MaxTimesF64 must not select the fast path (different Add)")
	}
}

// BenchmarkMultiply is the kernel benchmark for the compiler-feedback gate
// work: C = A² at a pinned worker count with a warm Context, so the numbers
// isolate kernel time (ring-call devirtualization, bounds-check elimination)
// from allocation effects.
func BenchmarkMultiply(b *testing.B) {
	er, g500 := ringfastMatrices()
	for _, m := range []struct {
		name string
		a    *matrix.CSR
	}{{"ER", er}, {"G500", g500}} {
		for _, unsorted := range []bool{false, true} {
			mode := "sorted"
			if unsorted {
				mode = "unsorted"
			}
			b.Run(fmt.Sprintf("%s/hash/%s", m.name, mode), func(b *testing.B) {
				ctx := NewContext()
				ctx.Pool = sched.NewPool(ringfastWorkers)
				defer ctx.Pool.Close()
				opt := &Options{Algorithm: AlgHash, Workers: ringfastWorkers, Unsorted: unsorted, Context: ctx}
				if _, err := Multiply(m.a, m.a, opt); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Multiply(m.a, m.a, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
