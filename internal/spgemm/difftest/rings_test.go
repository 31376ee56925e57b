package difftest

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// TestDifferentialRings cross-checks every algorithm against the ring oracle
// over every shipped semiring instantiation, reusing the float64 Cases suite
// (degenerate shapes included) mapped into each value type; the masked leg
// runs the special-value cases too.
func TestDifferentialRings(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	// The masked leg runs one-shot and, inside the same check, through one
	// Context per value type reused across the whole suite.
	ctxF64, ctxF32 := spgemm.NewContextG[float64](), spgemm.NewContextG[float32]()
	ctxBool, ctxI64, ctxU64 := spgemm.NewContextG[bool](), spgemm.NewContextG[int64](), spgemm.NewContextG[uint64]()
	cases := Cases(rng)
	for _, c := range append(cases, SpecialValueCases(rng)...) {
		for _, unsorted := range []bool{false, true} {
			if err := checkMaskedRings(c, unsorted, ctxF64, ctxF32, ctxBool, ctxI64, ctxU64); err != nil {
				t.Error(err)
			}
		}
	}
	for _, c := range cases {
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
				if err := CheckRing(c.Name+"/u64", semiring.OrAndU64{}, AsU64(c.A), AsU64(c.B), alg, unsorted, 3, ExactEq); err != nil {
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

// TestDifferentialOnePass runs the one-pass leg (CheckOnePass) over the whole
// suite on the seven ring instantiations TestDifferentialRings covers, whose
// three workers keep every product off the one-worker route. The
// one-pass-redo case has to take the route on each of them.
func TestDifferentialOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(1235))
	dir := t.TempDir()
	for _, c := range Cases(rng) {
		must := c.Name == "one-pass-redo"
		if err := errors.Join(
			CheckOnePass(c.Name+"/f64", semiring.PlusTimesF64{}, c.A, c.B, must, ApproxF64, dir),
			CheckOnePass(c.Name+"/f32", semiring.PlusTimesF32{}, AsF32(c.A), AsF32(c.B), must, ApproxF32, dir),
			CheckOnePass(c.Name+"/bool", semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B), must, ExactEq, dir),
			CheckOnePass(c.Name+"/i64", semiring.PlusTimesI64{}, AsI64(c.A), AsI64(c.B), must, ExactEq, dir),
			CheckOnePass(c.Name+"/u64", semiring.OrAndU64{}, AsU64(c.A), AsU64(c.B), must, ExactEq, dir),
			CheckOnePass(c.Name+"/minplus", semiring.MinPlusF64{}, AsMinPlus(c.A), AsMinPlus(c.B), must, ApproxF64, dir),
			CheckOnePass(c.Name+"/maxtimes", semiring.MaxTimesF64{}, c.A, c.B, must, ApproxF64, dir),
		); err != nil {
			t.Error(err)
		}
	}
}

// TestDifferentialRuleSides runs the rule leg (CheckRuleSides) over the whole
// suite and the special-value cases (-0, ±Inf and NaN come out of the SPA
// and the table with the same bits) on the seven ring instantiations
// TestDifferentialRings covers.
func TestDifferentialRuleSides(t *testing.T) {
	rng := rand.New(rand.NewSource(1236))
	for _, c := range append(Cases(rng), SpecialValueCases(rng)...) {
		if err := errors.Join(
			CheckRuleSides(c.Name+"/f64", semiring.PlusTimesF64{}, c.A, c.B),
			CheckRuleSides(c.Name+"/f32", semiring.PlusTimesF32{}, AsF32(c.A), AsF32(c.B)),
			CheckRuleSides(c.Name+"/bool", semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B)),
			CheckRuleSides(c.Name+"/i64", semiring.PlusTimesI64{}, AsI64(c.A), AsI64(c.B)),
			CheckRuleSides(c.Name+"/u64", semiring.OrAndU64{}, AsU64(c.A), AsU64(c.B)),
			CheckRuleSides(c.Name+"/minplus", semiring.MinPlusF64{}, AsMinPlus(c.A), AsMinPlus(c.B)),
			CheckRuleSides(c.Name+"/maxtimes", semiring.MaxTimesF64{}, c.A, c.B),
		); err != nil {
			t.Error(err)
		}
	}
}

// checkMaskedRings runs the masked leg of c over the seven ring
// instantiations TestDifferentialRings covers. A masked row folds its products
// in the oracle's order, so every ring's leg is bit-identical to the oracle —
// -0, ±Inf and NaN of the special-value cases included, on the dense mask
// index and on the table.
func checkMaskedRings(c Case, unsorted bool, f64 *spgemm.ContextG[float64], f32 *spgemm.ContextG[float32], bl *spgemm.ContextG[bool], i64 *spgemm.ContextG[int64], u64 *spgemm.ContextG[uint64]) error {
	return errors.Join(
		CheckRingMasked(c.Name+"/f64", semiring.PlusTimesF64{}, c.A, c.B, unsorted, 3, f64, sameBitsF64),
		CheckRingMasked(c.Name+"/f32", semiring.PlusTimesF32{}, AsF32(c.A), AsF32(c.B), unsorted, 3, f32, sameBitsF32),
		CheckRingMasked(c.Name+"/bool", semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B), unsorted, 3, bl, ExactEq),
		CheckRingMasked(c.Name+"/i64", semiring.PlusTimesI64{}, AsI64(c.A), AsI64(c.B), unsorted, 3, i64, ExactEq),
		CheckRingMasked(c.Name+"/u64", semiring.OrAndU64{}, AsU64(c.A), AsU64(c.B), unsorted, 3, u64, ExactEq),
		CheckRingMasked(c.Name+"/minplus", semiring.MinPlusF64{}, AsMinPlus(c.A), AsMinPlus(c.B), unsorted, 3, f64, sameBitsF64),
		CheckRingMasked(c.Name+"/maxtimes", semiring.MaxTimesF64{}, c.A, c.B, unsorted, 3, f64, sameBitsF64),
	)
}

// sameBitsF64 and sameBitsF32 are bit equality: -0 matches only -0, a NaN only
// a NaN of the same bits.
func sameBitsF64(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
func sameBitsF32(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }

// legacyMSBFS is the pre-generics reference implementation of the MSBFS
// sweep over a float64 frontier. It reads only the pattern of each product —
// an entry exists iff a product landed on it, whatever the ring — so the
// default plus-times ring stands in for the historical float or-and. Kept
// here as the oracle for the bit-packed graph.MSBFS.
func legacyMSBFS(g *matrix.CSR, sources []int32, alg spgemm.Algorithm) ([][]int32, error) {
	n := g.Rows
	k := len(sources)
	inner := spgemm.Options{Algorithm: alg, Context: spgemm.NewContext()}
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

// TestMSBFSMatchesLegacyFloat: the bit-packed MSBFS must produce exactly the
// levels of the historical float64 implementation on the same graph and
// sources, under every kernel it can be forced onto, at source counts on both
// sides of the 64-bit word boundaries. The sources repeat a vertex and end on
// one with no out-edges, and a stored explicit 0 is an edge on both sides.
func TestMSBFSMatchesLegacyFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for _, build := range []struct {
		name string
		g    *matrix.CSR
	}{
		{"er", gen.ER(8, 6, rng)},
		{"g500", gen.RMAT(8, 10, gen.G500Params, rng)},
	} {
		g := build.g
		for p := 0; p < len(g.Val); p += 7 {
			g.Val[p] = 0
		}
		sink := int32(0)
		for g.RowNNZ(int(sink)) > 0 {
			sink++
		}
		for _, k := range []int{0, 1, 63, 64, 65, 130} {
			sources := make([]int32, k)
			for j := range sources {
				sources[j] = int32(rng.Intn(g.Rows))
			}
			if k >= 3 {
				sources[1], sources[k-1] = sources[0], sink
			}
			want, err := legacyMSBFS(g, sources, spgemm.AlgHash)
			if err != nil {
				t.Fatalf("%s k=%d legacy MSBFS: %v", build.name, k, err)
			}
			for _, alg := range []spgemm.Algorithm{spgemm.AlgHash, spgemm.AlgHeap, spgemm.AlgAuto} {
				got, err := graph.MSBFS(g, sources, &spgemm.Options{Algorithm: alg, Workers: 3})
				if err != nil {
					t.Fatalf("%s k=%d %v MSBFS: %v", build.name, k, alg, err)
				}
				if !reflect.DeepEqual(got.Level, want) {
					t.Fatalf("%s k=%d %v: levels differ from the legacy float64 sweep", build.name, k, alg)
				}
			}
		}
	}
}
