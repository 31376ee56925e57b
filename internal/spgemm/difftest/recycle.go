package difftest

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// The poisoned-donation leg. A Context builds its next product in the arrays
// of one its caller donated (ContextG.Recycle), so those arrays arrive dirty:
// every kernel has to write every row pointer, column and value it sizes.
// The leg donates, before each multiply, a matrix filled with entries no
// kernel produces — row pointer and column -1, value the caller's sentinel —
// and requires the product to be bit-identical to the undonated one.

// donation is one poisoned matrix's capacities relative to the product it is
// donated ahead of.
type donation struct {
	name  string
	scale func(need int) int
	fits  bool
}

// donations are the three ways a donated array can meet the next product: too
// small to hold it (the Context must allocate and keep the donation), exactly
// its size, and larger.
var donations = []donation{
	{"small", func(n int) int { return n - 1 }, false},
	{"exact", func(n int) int { return n }, true},
	{"oversized", func(n int) int { return 2*n + 5 }, true},
}

// poisoned returns the matrix d donates ahead of a rows-row product of nnz
// entries.
func poisoned[V semiring.Value](d donation, rows, nnz int, sentinel V) *matrix.CSRG[V] {
	p := &matrix.CSRG[V]{
		RowPtr: make([]int64, max(d.scale(rows+1), 0)),
		ColIdx: make([]int32, max(d.scale(nnz), 0)),
		Val:    make([]V, max(d.scale(nnz), 0)),
	}
	for i := range p.RowPtr {
		p.RowPtr[i] = -1
	}
	for i := range p.ColIdx {
		p.ColIdx[i], p.Val[i] = -1, sentinel
	}
	return p
}

// shares reports whether x and y are cut from the start of one array.
func shares[T any](x, y []T) bool {
	return cap(x) > 0 && cap(y) > 0 && &x[:1][0] == &y[:1][0]
}

// poisonF64 is the float64 sentinel: a NaN survives any fold it is part of.
var poisonF64 = math.NaN()

// CheckRecycled multiplies a·b over ring once without a donation and then,
// for each kind of donation, on a Context of its own that holds nothing else
// and on ctx, which the caller reuses across cases: every product must be
// bit-identical to the undonated one. On the Context of its own it also pins
// the mechanism — a donation that fits is what the product is built in, one
// that does not is not, and Recycle leaves the donated matrix without arrays.
// mask, when non-nil, makes it the masked product (alg must be AlgHash),
// which cuts its own stripes; an unmasked product runs in each of alg's cuts.
func CheckRecycled[V semiring.Value, R semiring.Ring[V]](name string, ring R, a, b *matrix.CSRG[V], alg spgemm.Algorithm, unsorted bool, workers int, mask *matrix.CSRG[V], ctx *spgemm.ContextG[V], sentinel V) error {
	stripes := cuts(alg)
	if mask != nil {
		stripes = stripes[:1]
	}
	for _, n := range stripes {
		if err := checkRecycled(name, ring, a, b, alg, unsorted, workers, n, mask, ctx, sentinel); err != nil {
			return err
		}
	}
	return nil
}

func checkRecycled[V semiring.Value, R semiring.Ring[V]](name string, ring R, a, b *matrix.CSRG[V], alg spgemm.Algorithm, unsorted bool, workers, stripes int, mask *matrix.CSRG[V], ctx *spgemm.ContextG[V], sentinel V) error {
	name = fmt.Sprintf("%s/%v unsorted=%v workers=%d stripes=%d masked=%v", name, alg, unsorted, workers, stripes, mask != nil)
	opt := spgemm.OptionsG[V]{Algorithm: alg, Unsorted: unsorted, Workers: workers, Mask: mask, ShardMemBudget: stripeBudget(a, b, stripes)}
	want, err := spgemm.MultiplyRing(ring, a, b, &opt)
	if err != nil {
		if spgemm.RequiresSortedInput(alg) && !b.Sorted {
			return nil // documented rejection, not a defect
		}
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, d := range donations {
		p := poisoned(d, a.Rows, int(want.NNZ()), sentinel)
		rowPtr, cols, vals := p.RowPtr, p.ColIdx, p.Val
		opt.Context = spgemm.NewContextG[V]()
		opt.Context.Recycle(p)
		if p.RowPtr != nil || p.ColIdx != nil || p.Val != nil {
			return fmt.Errorf("%s: Recycle left the donated matrix its arrays", name)
		}
		got, err := spgemm.MultiplyRing(ring, a, b, &opt)
		if err == nil {
			err = identical(got, want)
		}
		if err != nil {
			return fmt.Errorf("%s: %s donation, fresh Context: %w", name, d.name, err)
		}
		if shares(got.RowPtr, rowPtr) != d.fits {
			return fmt.Errorf("%s: %s donation: row pointers built in the donated array = %v, want %v", name, d.name, !d.fits, d.fits)
		}
		if fits := d.fits && want.NNZ() > 0; (shares(got.ColIdx, cols) && shares(got.Val, vals)) != fits {
			return fmt.Errorf("%s: %s donation: entries built in the donated arrays = %v, want %v", name, d.name, !fits, fits)
		}

		opt.Context = ctx
		ctx.Recycle(poisoned(d, a.Rows, int(want.NNZ()), sentinel))
		got, err = spgemm.MultiplyRing(ring, a, b, &opt)
		if err == nil {
			err = identical(got, want)
		}
		if err != nil {
			return fmt.Errorf("%s: %s donation, reused Context: %w", name, d.name, err)
		}
	}
	return nil
}

// CheckPlanRecycled is the Plan side of the leg. For each kind of donation it
// builds a Plan of c.A·c.B (the inspection draws its row pointers from a
// donation too) and executes it four times with a fresh donation ahead of
// each: the kernel replay, the replay that builds the map, and two streamed
// replays — which fold onto prefilled values, so a dirty array is theirs to
// clean — must all be bit-identical to an undonated Multiply.
func CheckPlanRecycled(c Case, alg spgemm.Algorithm, unsorted bool, workers int) error {
	for _, stripes := range cuts(alg) {
		if err := checkPlanRecycled(c, alg, unsorted, workers, stripes); err != nil {
			return err
		}
	}
	return nil
}

func checkPlanRecycled(c Case, alg spgemm.Algorithm, unsorted bool, workers, stripes int) error {
	name := fmt.Sprintf("%s/%v plan unsorted=%v workers=%d stripes=%d", c.Name, alg, unsorted, workers, stripes)
	opt := spgemm.Options{Algorithm: alg, Unsorted: unsorted, Workers: workers, ShardMemBudget: stripeBudget(c.A, c.B, stripes)}
	want, err := spgemm.Multiply(c.A, c.B, &opt)
	if err != nil {
		if spgemm.RequiresSortedInput(alg) && !c.B.Sorted {
			return nil
		}
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, d := range donations {
		ctx := spgemm.NewContext()
		opt.Context = ctx
		ctx.Recycle(poisoned(d, c.A.Rows, int(want.NNZ()), poisonF64))
		plan, err := spgemm.NewPlan(c.A, c.B, &opt)
		if err != nil {
			return fmt.Errorf("%s: %s donation: %w", name, d.name, err)
		}
		for round := 1; round <= 4; round++ {
			ctx.Recycle(poisoned(d, c.A.Rows, int(want.NNZ()), poisonF64))
			got, err := plan.Execute()
			if err == nil {
				err = identical(got, want)
			}
			if err != nil {
				return fmt.Errorf("%s: %s donation, round %d: %w", name, d.name, round, err)
			}
		}
	}
	return nil
}
