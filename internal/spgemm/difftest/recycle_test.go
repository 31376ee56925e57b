package difftest

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// poisonU64 is the donated-array sentinel for AsU64 inputs (see AsU64).
const poisonU64 uint64 = 1 << 1

// kernels are the two concrete algorithms; AlgAuto resolves to one of them.
var kernels = []spgemm.Algorithm{spgemm.AlgHash, spgemm.AlgHeap}

// TestDifferentialRecycled runs the poisoned-donation leg over the suite and
// the special-value cases: every kernel (Hash also cut finer than one stripe
// per worker), sorted and unsorted, serial and parallel, one-shot and
// through one Context reused across the whole sweep — then the bool and
// uint64 rings, whose sentinels are a value their products never hold (every
// or-and product of the suite is true, and poisonU64's bit, which no AsU64
// word has).
func TestDifferentialRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	ctx, ctxBool, ctxU64 := spgemm.NewContext(), spgemm.NewContextG[bool](), spgemm.NewContextG[uint64]()
	for _, c := range append(Cases(rng), SpecialValueCases(rng)...) {
		for _, unsorted := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				for _, alg := range kernels {
					if err := CheckRecycled(c.Name, semiring.PlusTimesF64{}, c.A, c.B, alg, unsorted, workers, ctx, poisonF64); err != nil {
						t.Error(err)
					}
					if err := CheckRecycled(c.Name+"/bool", semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B), alg, unsorted, workers, ctxBool, false); err != nil {
						t.Error(err)
					}
					if err := CheckRecycled(c.Name+"/u64", semiring.OrAndU64{}, AsU64(c.A), AsU64(c.B), alg, unsorted, workers, ctxU64, poisonU64); err != nil {
						t.Error(err)
					}
				}
			}
		}
	}
}

// TestDifferentialPlanRecycled runs the Plan side of the leg: kernel replay,
// map build and streamed replay, each into every kind of donation.
func TestDifferentialPlanRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, c := range append(Cases(rng), SpecialValueCases(rng)...) {
		for _, alg := range kernels {
			for _, unsorted := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					if err := CheckPlanRecycled(c, alg, unsorted, workers); err != nil {
						t.Error(err)
					}
				}
			}
		}
	}
}

// TestRecycledOnePass: CheckRecycled's one-pass case, "one-pass-redo" on one
// worker in one stripe, takes the one-pass route (no symbolic phase), where
// a small donation is outgrown into a fresh, uninitialized array that ends at
// the product's last entry, and an oversized one keeps its capacity.
func TestRecycledOnePass(t *testing.T) {
	var c Case
	for _, x := range Cases(rand.New(rand.NewSource(84))) {
		if x.Name == "one-pass-redo" {
			c = x
		}
	}
	if c.A == nil {
		t.Fatal("Cases holds no one-pass-redo")
	}
	opt := spgemm.Options{Algorithm: spgemm.AlgHash, Unsorted: true, Workers: 1}
	want, err := spgemm.Multiply(c.A, c.B, &opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []donation{donations[0], donations[2]} {
		p := poisoned(d, c.A.Rows, int(want.NNZ()), poisonF64)
		cols, vals := p.ColIdx, p.Val
		var st spgemm.ExecStats
		opt.Context, opt.Stats = spgemm.NewContext(), &st
		opt.Context.Recycle(p)
		got, err := spgemm.Multiply(c.A, c.B, &opt)
		if err == nil {
			err = identical(got, want)
		}
		if err != nil {
			t.Fatalf("%s donation: %v", d.name, err)
		}
		if st.Phases[spgemm.PhaseSymbolic] != 0 {
			t.Errorf("%s donation: symbolic took %v, want the one-pass route", d.name, st.Phases[spgemm.PhaseSymbolic])
		}
		if shares(got.ColIdx, cols) != d.fits || shares(got.Val, vals) != d.fits {
			t.Errorf("%s donation: built in the donated arrays = %v, want %v", d.name, !d.fits, d.fits)
		}
		wantCap := len(got.ColIdx)
		if d.fits {
			wantCap = cap(cols)
		}
		if cap(got.ColIdx) != wantCap || cap(got.Val) != wantCap {
			t.Errorf("%s donation: cap %d/%d, want %d", d.name, cap(got.ColIdx), cap(got.Val), wantCap)
		}
	}
}

// TestRecycledOneColumn: CheckRecycled's small and oversized donations ahead
// of "er-times-column", serial and parallel, which takes the one-column route
// (no partition, no symbolic phase). Its output is drawn at nnz(C) like a
// two-phase product's: a small donation is not taken and the fresh arrays end
// at the product's last entry, and an oversized one is built in and keeps its
// capacity.
func TestRecycledOneColumn(t *testing.T) {
	var c Case
	for _, x := range Cases(rand.New(rand.NewSource(85))) {
		if x.Name == "er-times-column" {
			c = x
		}
	}
	if c.A == nil {
		t.Fatal("Cases holds no er-times-column")
	}
	for _, workers := range []int{1, 3} {
		opt := spgemm.Options{Algorithm: spgemm.AlgHash, Workers: workers}
		want, err := spgemm.Multiply(c.A, c.B, &opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []donation{donations[0], donations[2]} {
			p := poisoned(d, c.A.Rows, int(want.NNZ()), poisonF64)
			cols, vals := p.ColIdx, p.Val
			var st spgemm.ExecStats
			opt.Context, opt.Stats = spgemm.NewContext(), &st
			opt.Context.Recycle(p)
			got, err := spgemm.Multiply(c.A, c.B, &opt)
			if err == nil {
				err = identical(got, want)
			}
			if err != nil {
				t.Fatalf("W=%d %s donation: %v", workers, d.name, err)
			}
			if st.Phases[spgemm.PhasePartition] != 0 || st.Phases[spgemm.PhaseSymbolic] != 0 {
				t.Errorf("W=%d %s donation: partition %v, symbolic %v, want the one-column route", workers, d.name, st.Phases[spgemm.PhasePartition], st.Phases[spgemm.PhaseSymbolic])
			}
			if shares(got.ColIdx, cols) != d.fits || shares(got.Val, vals) != d.fits {
				t.Errorf("W=%d %s donation: built in the donated arrays = %v, want %v", workers, d.name, !d.fits, d.fits)
			}
			wantCap := len(got.ColIdx)
			if d.fits {
				wantCap = cap(cols)
			}
			if cap(got.ColIdx) != wantCap || cap(got.Val) != wantCap {
				t.Errorf("W=%d %s donation: cap %d/%d, want %d", workers, d.name, cap(got.ColIdx), cap(got.Val), wantCap)
			}
		}
	}
}

// TestRecycleNoOps: donating nothing, or a product with no entries, neither
// fails nor displaces what the Context already holds.
func TestRecycleNoOps(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	c := Cases(rng)[0]
	opt := &spgemm.Options{Algorithm: spgemm.AlgHash}
	want, err := spgemm.Multiply(c.A, c.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := spgemm.NewContext()
	opt.Context = ctx
	held := poisoned(donations[1], c.A.Rows, int(want.NNZ()), poisonF64)
	cols := held.ColIdx
	ctx.Recycle(held)

	ctx.Recycle(nil)
	empty, err := spgemm.Multiply(matrix.NewCOO(c.A.Rows, c.A.Cols).ToCSR(), c.B, opt)
	if err != nil || empty.NNZ() != 0 {
		t.Fatalf("empty product: nnz %d, err %v", empty.NNZ(), err)
	}
	if shares(empty.ColIdx, cols) {
		t.Error("a product with no entries took the donated arrays")
	}
	ctx.Recycle(empty)

	got, err := spgemm.Multiply(c.A, c.B, opt)
	if err == nil {
		err = identical(got, want)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !shares(got.ColIdx, cols) {
		t.Error("the donation held before the no-op donations was displaced")
	}
}
