package spgemm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// Tests and benchmarks for the native plus-times row bodies (ringfast.go).
// The equivalence tests force the dictionary bodies by using a ring type
// bodiesFor does not recognize and require bit-identical output;
// BenchmarkMultiply is the kernel-level before/after benchmark quoted in
// EXPERIMENTS.md.

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

// slowPlusTimes is plus-times as a ring type bodiesFor does not recognize,
// pinning the dictionary bodies (ringBodies).
type slowPlusTimes[V float64 | float32 | int64] struct{}

func (slowPlusTimes[V]) Add(a, b V) V { return a + b }
func (slowPlusTimes[V]) Mul(a, b V) V { return a * b }
func (slowPlusTimes[V]) Zero() V      { return 0 }

type slowPlusTimesF64 = slowPlusTimes[float64]

// ringfastPair is one product of TestRingFastEquivalence, in float64.
type ringfastPair struct {
	name string
	a, b *matrix.CSR
}

// TestRingFastEquivalence checks that the native plus-times bodies — one-shot
// and, for float64, as a Plan replay — produce output bit-identical to the
// dictionary bodies, sorted and unsorted, for every kernel that runs the
// whole-row hash functions, on the float64, float32 and int64 plus-times
// rings: on a uniform and a skewed input (rows fold through the SPA), on two
// compression-ratio-1 products, a thin ER square and a permutation times ER
// (unsorted rows are concatenated, and at one worker take the one-pass
// route), and on the skewed input times a hypersparse B wide enough (Cols >
// flop) that its heavy rows fold through the hash table. The float legs add
// difftest's special values: an ER square whose entries are drawn from ±0,
// ±Inf, ±1 and ±2.5, so products meet -0 + +0, Inf·0 and Inf - Inf, with B
// sorted and unsorted.
func TestRingFastEquivalence(t *testing.T) {
	er, g500 := ringfastMatrices()
	rng := rand.New(rand.NewSource(20180619))
	thin := gen.Unsorted(gen.ER(13, 2, rng), rng)
	perm := matrix.Identity(er.Rows).PermuteRows(rng.Perm(er.Rows))
	wide := matrix.RandomWithDegree(g500.Cols, 1<<22, 4, rng)
	pairs := []ringfastPair{{"ER", er, er}, {"G500", g500, g500}, {"ER-CR1", thin, thin}, {"Perm", perm, er}, {"G500-heavy", g500, wide}}
	palette := []float64{1, -1, 0, negZero, math.Inf(1), math.Inf(-1), 2.5, -2.5}
	special := matrix.MapValues(gen.ER(9, 8, rng), func(float64) float64 { return palette[rng.Intn(len(palette))] })
	floats := append(pairs, ringfastPair{"special", special, special}, ringfastPair{"special-unsortedB", special, gen.Unsorted(special, rng)})

	hash := ringfastLeg{"hash", AlgHash, 0}
	legs := []ringfastLeg{hash, {"sharded", AlgHash, 3 * ringfastWorkers}}
	checkRingFast(t, semiring.PlusTimesF64{}, slowPlusTimes[float64]{}, legs, floats, wide, func(v float64) float64 { return v })
	t.Run("f32", func(t *testing.T) {
		checkRingFast(t, semiring.PlusTimesF32{}, slowPlusTimes[float32]{}, []ringfastLeg{hash}, floats, wide, func(v float64) float32 { return float32(v) })
	})
	t.Run("i64", func(t *testing.T) {
		checkRingFast(t, semiring.PlusTimesI64{}, slowPlusTimes[int64]{}, []ringfastLeg{hash}, pairs, wide, func(v float64) int64 { return int64(math.Round(4 * v)) })
	})
}

// ringfastLeg is one geometry of checkRingFast: an algorithm cut into its
// own stripes, or by a budget into about that many ("sharded": Hash cut finer
// than one stripe per worker; see stripeBudget).
type ringfastLeg struct {
	name    string
	alg     Algorithm
	stripes int
}

// checkRingFast runs TestRingFastEquivalence's products, their values mapped
// by conv, through legs on ring (the native bodies) and on slow (the
// dictionary bodies). Finer stripes run Hash's rows, so only the float64
// leg, the Plans' ring, runs them.
func checkRingFast[V float64 | float32 | int64, R semiring.Ring[V]](t *testing.T, ring R, slow slowPlusTimes[V], legs []ringfastLeg, pairs []ringfastPair, wide *matrix.CSR, conv func(float64) V) {
	for _, leg := range legs {
		alg := leg.alg
		for _, m := range pairs {
			a, b := matrix.MapValues(m.a, conv), matrix.MapValues(m.b, conv)
			for _, unsorted := range []bool{false, true} {
				workers := []int{ringfastWorkers}
				if alg == AlgHash && leg.stripes == 0 && unsorted { // the one-pass route's geometry
					workers = append(workers, 1)
				}
				for _, w := range workers {
					name := fmt.Sprintf("%s/%s/unsorted=%v", leg.name, m.name, unsorted)
					if w != ringfastWorkers {
						name += fmt.Sprintf("/W=%d", w)
					}
					t.Run(name, func(t *testing.T) {
						var st ExecStats
						budget := stripeBudget(a, b, leg.stripes)
						fast, err := MultiplyRing(ring, a, b, &OptionsG[V]{Algorithm: alg, ShardMemBudget: budget, Workers: w, Unsorted: unsorted, Stats: &st})
						if err != nil {
							t.Fatal(err)
						}
						if m.b == wide && st.TotalWorker().HashLookups == 0 {
							t.Fatal("the wide product's rows did not fold through the hash table")
						}
						if w == 1 && m.name == "ER-CR1" && st.Phases[PhaseSymbolic] != 0 {
							t.Fatal("the compression-ratio-1 square did not take the one-pass route")
						}
						want, err := MultiplyRing(slow, a, b, &OptionsG[V]{Algorithm: alg, ShardMemBudget: budget, Workers: w, Unsorted: unsorted})
						if err != nil {
							t.Fatal(err)
						}
						requireSameCSR(t, want, fast)
						fa, f64 := any(a).(*matrix.CSR)
						if !f64 {
							return // a Plan is float64 plus-times only
						}
						plan, err := NewPlan(fa, any(b).(*matrix.CSR), &Options{Algorithm: alg, ShardMemBudget: budget, Workers: w, Unsorted: unsorted})
						if err != nil {
							t.Fatal(err)
						}
						for run := 0; run < 3; run++ { // the kernel, the replay map's build, the streamed replay
							replay, err := plan.Execute()
							if err != nil {
								t.Fatal(err)
							}
							requireSameCSR(t, any(want).(*matrix.CSR), replay)
						}
					})
				}
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
		if !sameBits(want.Val[p], got.Val[p]) {
			t.Fatalf("val[%d]: want %v, got %v (not bit-identical)", p, want.Val[p], got.Val[p])
		}
	}
}

// sameBits compares floats by their bits (so -0 is not +0 and a NaN equals
// itself), every other value by ==.
func sameBits[V semiring.Value](x, y V) bool {
	switch x := any(x).(type) {
	case float64:
		return math.Float64bits(x) == math.Float64bits(any(y).(float64))
	case float32:
		return math.Float32bits(x) == math.Float32bits(any(y).(float32))
	}
	return x == y
}

// TestRingFastSelection pins the one selection of row bodies: the three
// plus-times rings take ptBodies, every other ring — a foreign type with
// plus-times methods included — ringBodies.
func TestRingFastSelection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		native bool
	}{
		{"plus-times<f64>", nativeBodies[float64](semiring.PlusTimesF64{})},
		{"plus-times<f32>", nativeBodies[float32](semiring.PlusTimesF32{})},
		{"plus-times<i64>", nativeBodies[int64](semiring.PlusTimesI64{})},
		{"max-times<f64>", nativeBodies[float64](semiring.MaxTimesF64{})},
		{"min-plus<f64>", nativeBodies[float64](semiring.MinPlusF64{})},
		{"or-and<u64>", nativeBodies[uint64](semiring.OrAndU64{})},
		{"or-and<bool>", nativeBodies[bool](semiring.OrAndBool{})},
		{"foreign plus-times<f64>", nativeBodies[float64](slowPlusTimes[float64]{})},
		{"foreign plus-times<i64>", nativeBodies[int64](slowPlusTimes[int64]{})},
	} {
		if want := strings.HasPrefix(tc.name, "plus-times"); tc.native != want {
			t.Errorf("%s: native bodies = %v, want %v", tc.name, tc.native, want)
		}
	}
}

// nativeBodies reports whether bodiesFor hands ring anything but the
// dictionary bodies.
func nativeBodies[V semiring.Value, R semiring.Ring[V]](ring R) bool {
	_, dictionary := bodiesFor[V](ring).(ringBodies[V, R])
	return !dictionary
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
