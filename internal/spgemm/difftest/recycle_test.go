package difftest

import (
	"math"
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
// per worker) and the masked Hash, sorted and unsorted, serial and parallel, one-shot and
// through one Context reused across the whole sweep — then the bool, int64
// and uint64 rings, whose sentinels are a value their products never hold
// (every or-and product of the suite is true, the smallest integer, and
// poisonU64's bit, which no AsU64 word has).
func TestDifferentialRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	ctx, ctxBool, ctxI64, ctxU64 := spgemm.NewContext(), spgemm.NewContextG[bool](), spgemm.NewContextG[int64](), spgemm.NewContextG[uint64]()
	for _, c := range append(Cases(rng), SpecialValueCases(rng)...) {
		masks := masksFor(c.A, matrix.NaiveMultiply(c.A, c.B))
		for _, unsorted := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				for _, alg := range kernels {
					if err := CheckRecycled(c.Name, semiring.PlusTimesF64{}, c.A, c.B, alg, unsorted, workers, nil, ctx, poisonF64); err != nil {
						t.Error(err)
					}
					if err := CheckRecycled(c.Name+"/bool", semiring.OrAndBool{}, AsBool(c.A), AsBool(c.B), alg, unsorted, workers, nil, ctxBool, false); err != nil {
						t.Error(err)
					}
					if err := CheckRecycled(c.Name+"/i64", semiring.PlusTimesI64{}, AsI64(c.A), AsI64(c.B), alg, unsorted, workers, nil, ctxI64, math.MinInt64); err != nil {
						t.Error(err)
					}
					if err := CheckRecycled(c.Name+"/u64", semiring.OrAndU64{}, AsU64(c.A), AsU64(c.B), alg, unsorted, workers, nil, ctxU64, poisonU64); err != nil {
						t.Error(err)
					}
				}
				for _, mc := range masks {
					if err := CheckRecycled(c.Name+"/mask="+mc.name, semiring.PlusTimesF64{}, c.A, c.B, spgemm.AlgHash, unsorted, workers, mc.m, ctx, poisonF64); err != nil {
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
