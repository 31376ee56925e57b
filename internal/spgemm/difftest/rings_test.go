package difftest

import (
	"errors"
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
// (degenerate shapes included) mapped into each value type. The special-value
// cases run the count leg and the oracle leg on the three float rings, where
// two NaNs match (ApproxF64): a NaN sum must come out of Heap's pop order and
// Hash's product order alike.
func TestDifferentialRings(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	cases := Cases(rng)
	all := append(cases, SpecialValueCases(rng)...)
	// The count leg runs one-shot and, inside the same check, through one
	// Context per value type reused across the whole suite: float64, and
	// uint64 (AsU64), whose values are mostly stored zeros that still count.
	ctxF64, ctxU64 := spgemm.NewContext(), spgemm.NewContextG[uint64]()
	for _, c := range all {
		if err := errors.Join(
			CheckMaskedCount(c.Name+"/f64", c.A, c.B, ctxF64),
			CheckMaskedCount(c.Name+"/u64", AsU64(c.A), AsU64(c.B), ctxU64),
		); err != nil {
			t.Error(err)
		}
	}
	for i, c := range all {
		for _, alg := range Algorithms {
			for _, unsorted := range []bool{false, true} {
				// plus-times float64 through the generic entry point: must
				// match the oracle exactly like the legacy path does.
				errs := []error{
					CheckRing(c.Name+"/f64", semiring.PlusTimesF64{}, c.A, c.B, alg, unsorted, 3, ApproxF64),
					CheckRing(c.Name+"/minplus", semiring.MinPlusF64{}, AsMinPlus(c.A), AsMinPlus(c.B), alg, unsorted, 3, ApproxF64),
					CheckRing(c.Name+"/maxtimes", semiring.MaxTimesF64{}, c.A, c.B, alg, unsorted, 3, ApproxF64),
				}
				if i < len(cases) {
					errs = append(errs,
						CheckRing(c.Name+"/bool", semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B), alg, unsorted, 3, ExactEq),
						CheckRing(c.Name+"/u64", semiring.OrAndU64{}, AsU64(c.A), AsU64(c.B), alg, unsorted, 3, ExactEq))
				}
				if err := errors.Join(errs...); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestDifferentialOnePass runs the one-pass leg (CheckOnePass) over the whole
// suite on the five ring instantiations TestDifferentialRings covers, whose
// three workers keep every product off the one-worker route, and over the
// special-value cases on its three float rings. The one-pass-redo case has to
// take the route on each of them.
func TestDifferentialOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(1235))
	dir := t.TempDir()
	cases := Cases(rng)
	for i, c := range append(cases, SpecialValueCases(rng)...) {
		must := c.Name == "one-pass-redo"
		errs := []error{
			CheckOnePass(c.Name+"/f64", semiring.PlusTimesF64{}, c.A, c.B, must, ApproxF64, dir),
			CheckOnePass(c.Name+"/minplus", semiring.MinPlusF64{}, AsMinPlus(c.A), AsMinPlus(c.B), must, ApproxF64, dir),
			CheckOnePass(c.Name+"/maxtimes", semiring.MaxTimesF64{}, c.A, c.B, must, ApproxF64, dir),
		}
		if i < len(cases) {
			errs = append(errs,
				CheckOnePass(c.Name+"/bool", semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B), must, ExactEq, dir),
				CheckOnePass(c.Name+"/u64", semiring.OrAndU64{}, AsU64(c.A), AsU64(c.B), must, ExactEq, dir))
		}
		if err := errors.Join(errs...); err != nil {
			t.Error(err)
		}
	}
}

// TestDifferentialOneColumn runs the one-column leg (CheckOneColumn) over
// every case of the suite and of the special-value cases whose B has at most
// one column (the -0 products among them), over a wide one whose nnz(A) cuts
// at least W stripes, and over a B that stores its column twice in a row, on
// or-and over uint64 and bool, plus-times, min-plus and max-times over
// float64 — the special-value cases on the three float rings only.
func TestDifferentialOneColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(1238))
	dir := t.TempDir()
	wide := gen.ER(12, 4, rng) // 4096 rows, about 16,000 entries
	column := matrix.NewCOO(wide.Cols, 1)
	for k := 0; k < wide.Cols; k++ {
		if rng.Intn(3) != 0 {
			column.Append(int32(k), 0, rng.NormFloat64())
		}
	}
	// A non-canonical column: rows of B store it twice, once and not at all in
	// turn, so two products of one B row land on one entry.
	er := gen.ER(6, 4, rng)
	twice := &matrix.CSR{Rows: er.Cols, Cols: 1, RowPtr: make([]int64, 1, er.Cols+1)}
	for k := 0; k < er.Cols; k++ {
		for range 2 - k%3 {
			twice.ColIdx = append(twice.ColIdx, 0)
			twice.Val = append(twice.Val, rng.NormFloat64())
		}
		twice.RowPtr = append(twice.RowPtr, int64(len(twice.ColIdx)))
	}
	cases := append(Cases(rng), Case{Name: "wide-times-column", A: wide, B: column.ToCSR()}, Case{Name: "column-stored-twice", A: er, B: twice})
	routed := 0
	for i, c := range append(cases, SpecialValueCases(rng)...) {
		if c.B.Cols > 1 {
			continue
		}
		routed++
		stripes := c.Name == "wide-times-column"
		errs := []error{
			CheckOneColumn(c.Name+"/f64", semiring.PlusTimesF64{}, c.A, c.B, stripes, ApproxF64, dir),
			CheckOneColumn(c.Name+"/minplus", semiring.MinPlusF64{}, AsMinPlus(c.A), AsMinPlus(c.B), stripes, ApproxF64, dir),
			CheckOneColumn(c.Name+"/maxtimes", semiring.MaxTimesF64{}, c.A, c.B, stripes, ApproxF64, dir),
		}
		if i < len(cases) {
			errs = append(errs,
				CheckOneColumn(c.Name+"/bool", semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B), stripes, ExactEq, dir),
				CheckOneColumn(c.Name+"/u64", semiring.OrAndU64{}, AsU64(c.A), AsU64(c.B), stripes, ExactEq, dir))
		}
		if err := errors.Join(errs...); err != nil {
			t.Error(err)
		}
	}
	if routed < 10 {
		t.Errorf("%d cases into one column, want at least 10", routed)
	}
}

// TestContextRingsShareSPA: one float64 Context serves a min-plus product,
// whose dictionary row body stores each column's first product in the SPA,
// and a sorted plus-times product, whose bitmap rows add their first product
// onto the slot's identity, then both again in the other order. The operands
// are the special-value cases, and every product must be bit-identical to
// the same product on a fresh Context: each extraction has to leave its slots
// at -0 whatever ring wrote them. Two workers share no SPA, so each runs both.
func TestContextRingsShareSPA(t *testing.T) {
	type product func(*spgemm.Context) (*matrix.CSR, error)
	for _, c := range SpecialValueCases(rand.New(rand.NewSource(1237))) {
		for _, workers := range []int{1, 2} {
			minPlus := func(ctx *spgemm.Context) (*matrix.CSR, error) {
				return spgemm.MultiplyRing(semiring.MinPlusF64{}, c.A, c.B, &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: workers, Context: ctx})
			}
			plusTimes := func(ctx *spgemm.Context) (*matrix.CSR, error) {
				return spgemm.MultiplyRing(semiring.PlusTimesF64{}, c.A, c.B, &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: workers, Context: ctx})
			}
			for _, order := range [][]product{{minPlus, plusTimes, minPlus}, {plusTimes, minPlus, plusTimes}} {
				shared := spgemm.NewContext()
				for step, p := range order {
					got, err := p(shared)
					if err != nil {
						t.Fatal(err)
					}
					want, err := p(spgemm.NewContext())
					if err != nil {
						t.Fatal(err)
					}
					if err := identical(got, want); err != nil {
						t.Errorf("%s W=%d: product %d on the shared Context: %v", c.Name, workers, step, err)
					}
				}
			}
		}
	}
}

// TestDifferentialRuleSides runs the rule leg (CheckRuleSides) over the whole
// suite and the special-value cases (-0, ±Inf and NaN come out of the SPA
// and the table with the same bits) on the five ring instantiations
// TestDifferentialRings covers.
func TestDifferentialRuleSides(t *testing.T) {
	rng := rand.New(rand.NewSource(1236))
	for _, c := range append(Cases(rng), SpecialValueCases(rng)...) {
		if err := errors.Join(
			CheckRuleSides(c.Name+"/f64", semiring.PlusTimesF64{}, c.A, c.B),
			CheckRuleSides(c.Name+"/bool", semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B)),
			CheckRuleSides(c.Name+"/u64", semiring.OrAndU64{}, AsU64(c.A), AsU64(c.B)),
			CheckRuleSides(c.Name+"/minplus", semiring.MinPlusF64{}, AsMinPlus(c.A), AsMinPlus(c.B)),
			CheckRuleSides(c.Name+"/maxtimes", semiring.MaxTimesF64{}, c.A, c.B),
		); err != nil {
			t.Error(err)
		}
	}
}

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
