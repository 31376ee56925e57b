package difftest

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// TestDifferentialRings cross-checks every algorithm against the ring oracle
// over every shipped semiring instantiation, reusing the float64 Cases suite
// (degenerate shapes included) mapped into each value type.
func TestDifferentialRings(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	// The masked leg runs one-shot and, inside the same check, through one
	// Context per value type reused across the whole suite.
	ctxF64, ctxF32 := spgemm.NewContextG[float64](), spgemm.NewContextG[float32]()
	ctxBool, ctxI64 := spgemm.NewContextG[bool](), spgemm.NewContextG[int64]()
	for _, c := range Cases(rng) {
		for _, unsorted := range []bool{false, true} {
			if err := checkMaskedRings(c, unsorted, ctxF64, ctxF32, ctxBool, ctxI64); err != nil {
				t.Error(err)
			}
		}
		for _, alg := range Algorithms {
			for _, unsorted := range []bool{false, true} {
				// plus-times float64 through the generic entry point: must
				// match the oracle exactly like the legacy path does.
				if err := CheckRing(c.Name+"/f64", semiring.PlusTimesF64{}, c.A, c.B, alg, unsorted, 3, ApproxF64); err != nil {
					t.Error(err)
				}
				if err := CheckRing(c.Name+"/f32", semiring.PlusTimesF32{}, AsF32(c.A), AsF32(c.B), alg, unsorted, 3, ApproxF32); err != nil {
					t.Error(err)
				}
				if err := CheckRing(c.Name+"/bool", semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B), alg, unsorted, 3, ExactEq); err != nil {
					t.Error(err)
				}
				if err := CheckRing(c.Name+"/i64", semiring.PlusTimesI64{}, AsI64(c.A), AsI64(c.B), alg, unsorted, 3, ExactEq); err != nil {
					t.Error(err)
				}
				if err := CheckRing(c.Name+"/minplus", semiring.MinPlusF64{}, AsMinPlus(c.A), AsMinPlus(c.B), alg, unsorted, 3, ApproxF64); err != nil {
					t.Error(err)
				}
				if err := CheckRing(c.Name+"/maxtimes", semiring.MaxTimesF64{}, c.A, c.B, alg, unsorted, 3, ApproxF64); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// checkMaskedRings runs the masked leg of c over the six ring instantiations
// TestDifferentialRings covers.
func checkMaskedRings(c Case, unsorted bool, f64 *spgemm.ContextG[float64], f32 *spgemm.ContextG[float32], bl *spgemm.ContextG[bool], i64 *spgemm.ContextG[int64]) error {
	return errors.Join(
		CheckRingMasked(c.Name+"/f64", semiring.PlusTimesF64{}, c.A, c.B, unsorted, 3, f64, ApproxF64),
		CheckRingMasked(c.Name+"/f32", semiring.PlusTimesF32{}, AsF32(c.A), AsF32(c.B), unsorted, 3, f32, ApproxF32),
		CheckRingMasked(c.Name+"/bool", semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B), unsorted, 3, bl, ExactEq),
		CheckRingMasked(c.Name+"/i64", semiring.PlusTimesI64{}, AsI64(c.A), AsI64(c.B), unsorted, 3, i64, ExactEq),
		CheckRingMasked(c.Name+"/minplus", semiring.MinPlusF64{}, AsMinPlus(c.A), AsMinPlus(c.B), unsorted, 3, f64, ApproxF64),
		CheckRingMasked(c.Name+"/maxtimes", semiring.MaxTimesF64{}, c.A, c.B, unsorted, 3, f64, ApproxF64),
	)
}

// TestLegacySemiringAdapter pins the adapter contract: Multiply with a
// non-nil Options.Semiring routes through the semiring.Func adapter ring
// and must agree with (a) the same semiring evaluated by the oracle and
// (b) the monomorphized bool ring on the same pattern.
func TestLegacySemiringAdapter(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, c := range Cases(rng) {
		pa := matrix.MapValues(c.A, func(v float64) float64 {
			if v != 0 {
				return 1
			}
			return 0
		})
		pb := matrix.MapValues(c.B, func(v float64) float64 {
			if v != 0 {
				return 1
			}
			return 0
		})
		for _, alg := range Algorithms {
			legacy, err := spgemm.Multiply(pa, pb, &spgemm.Options{Algorithm: alg, Semiring: semiring.OrAnd()})
			if err != nil {
				if spgemm.RequiresSortedInput(alg) && !pb.Sorted {
					continue
				}
				t.Fatalf("%s/%v legacy semiring: %v", c.Name, alg, err)
			}
			want := matrix.NaiveMultiplyRing(semiring.Func{S: semiring.OrAnd()}, pa, pb)
			if err := EquivalentRing(legacy, want, ApproxF64); err != nil {
				t.Errorf("%s/%v legacy semiring vs oracle: %v", c.Name, alg, err)
			}
			// Same pattern through the monomorphized bool ring.
			boolGot, err := spgemm.MultiplyRing(semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B), &spgemm.OptionsG[bool]{Algorithm: alg})
			if err != nil {
				t.Fatalf("%s/%v bool ring: %v", c.Name, alg, err)
			}
			boolWant := matrix.MapValues(want, func(v float64) bool { return v != 0 })
			if err := EquivalentRing(boolGot, boolWant, ExactEq); err != nil {
				t.Errorf("%s/%v bool ring vs legacy OrAnd pattern: %v", c.Name, alg, err)
			}
		}
	}
}

// legacyMSBFS is the pre-generics reference implementation of the MSBFS
// sweep: float64 frontier, func-pointer or-and semiring. Kept here as the
// oracle for the bool re-plumb of graph.MSBFS.
func legacyMSBFS(g *matrix.CSR, sources []int32, alg spgemm.Algorithm) ([][]int32, error) {
	n := g.Rows
	k := len(sources)
	inner := spgemm.Options{Algorithm: alg, Semiring: semiring.OrAnd(), Context: spgemm.NewContext()}
	at := g.Transpose()
	level := make([][]int32, n)
	for v := range level {
		row := make([]int32, k)
		for j := range row {
			row[j] = -1
		}
		level[v] = row
	}
	frontier := matrix.NewCOO(n, k)
	for j, s := range sources {
		frontier.Append(s, int32(j), 1)
		level[s][j] = 0
	}
	f := frontier.ToCSR()
	for depth := int32(1); f.NNZ() > 0; depth++ {
		next, err := spgemm.Multiply(at, f, &inner)
		if err != nil {
			return nil, err
		}
		nf := matrix.NewCOO(n, k)
		for v := 0; v < n; v++ {
			cols, _ := next.Row(v)
			for _, j := range cols {
				if level[v][j] < 0 {
					level[v][j] = depth
					nf.Append(int32(v), j, 1)
				}
			}
		}
		f = nf.ToCSR()
	}
	return level, nil
}

// TestMSBFSBoolMatchesLegacyFloat is the MSBFS-equivalence acceptance test:
// the bool-ring MSBFS must produce exactly the levels of the historical
// float64 or-and implementation on the same graph and sources.
func TestMSBFSBoolMatchesLegacyFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for _, build := range []struct {
		name string
		g    *matrix.CSR
	}{
		{"er", gen.ER(8, 6, rng)},
		{"g500", gen.RMAT(8, 10, gen.G500Params, rng)},
	} {
		sources := []int32{0, 3, 17, 63}
		for _, alg := range []spgemm.Algorithm{spgemm.AlgHash, spgemm.AlgHashVec} {
			got, err := graph.MSBFS(build.g, sources, &spgemm.Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("%s/%v MSBFS: %v", build.name, alg, err)
			}
			want, err := legacyMSBFS(build.g, sources, alg)
			if err != nil {
				t.Fatalf("%s/%v legacy MSBFS: %v", build.name, alg, err)
			}
			for v := range want {
				for j := range want[v] {
					if got.Level[v][j] != want[v][j] {
						t.Fatalf("%s/%v: Level[%d][%d]=%d, want %d",
							build.name, alg, v, j, got.Level[v][j], want[v][j])
					}
				}
			}
		}
	}
}
