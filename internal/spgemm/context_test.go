package spgemm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

var errMismatch = errors.New("result mismatch")

// csrEqual reports whether two matrices are bit-identical (same structure,
// same value bytes, same Sorted flag).
func csrEqual(a, b *matrix.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.Sorted != b.Sorted {
		return false
	}
	if len(a.RowPtr) != len(b.RowPtr) || len(a.ColIdx) != len(b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			return false
		}
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// TestContextReuseMatchesOneShot drives every algorithm through one shared
// Context over a sequence of products with varying shapes and checks each
// result is bit-identical to a fresh one-shot call: cached state growing,
// shrinking and re-resetting must never leak into the output, and no result
// may share storage with the Context — the next call must leave it intact.
func TestContextReuseMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type pair struct{ a, b *matrix.CSR }
	var seq []pair
	for _, dims := range [][3]int{{60, 50, 40}, {200, 180, 190}, {12, 15, 9}, {200, 180, 190}} {
		a := matrix.Random(dims[0], dims[1], 0.06, rng)
		b := matrix.Random(dims[1], dims[2], 0.06, rng)
		seq = append(seq, pair{a, b})
	}
	for _, tc := range allAlgorithms {
		t.Run(tc.name, func(t *testing.T) {
			ctx := NewContext()
			var prev, prevSaved *matrix.CSR
			for round, p := range seq {
				opt := Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(p.a, p.b, tc.stripes), Workers: 3, Context: ctx}
				got, err := Multiply(p.a, p.b, &opt)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if prev != nil && !csrEqual(prev, prevSaved) {
					t.Fatalf("round %d overwrote the result of round %d", round, round-1)
				}
				prev, prevSaved = got, got.Clone()
				fresh := Options{Algorithm: tc.alg, ShardMemBudget: stripeBudget(p.a, p.b, tc.stripes), Workers: 3}
				want, err := Multiply(p.a, p.b, &fresh)
				if err != nil {
					t.Fatalf("round %d fresh: %v", round, err)
				}
				if !csrEqual(got, want) {
					t.Fatalf("round %d: context result differs from one-shot", round)
				}
			}
		})
	}
}

// TestContextReuseMaskedAndSemiring runs a masked product (one phase, its
// index and upper-bound buffers the Context's) and a non-default semiring
// (the generic two-phase path) through the same reused Context.
func TestContextReuseMaskedAndSemiring(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := matrix.Random(80, 70, 0.08, rng)
	b := matrix.Random(70, 60, 0.08, rng)
	mask := matrix.Random(80, 60, 0.3, rng)
	ctx := NewContext()
	for round := 0; round < 3; round++ {
		got, err := Multiply(a, b, &Options{Algorithm: AlgHash, Workers: 2, Mask: mask, Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Multiply(a, b, &Options{Algorithm: AlgHash, Workers: 2, Mask: mask})
		if err != nil {
			t.Fatal(err)
		}
		if !csrEqual(got, want) {
			t.Fatalf("round %d: masked context result differs", round)
		}
		sr := semiring.MinPlusF64{}
		got, err = MultiplyRing(sr, a, b, &Options{Algorithm: AlgHash, Workers: 2, Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		want, err = MultiplyRing(sr, a, b, &Options{Algorithm: AlgHash, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !csrEqual(got, want) {
			t.Fatalf("round %d: semiring context result differs", round)
		}
	}
}

// TestContextConcurrentDistinct runs concurrent Multiply calls, each with its
// own Context, sharing nothing but the default worker pool. Run under -race
// in CI; any accidental sharing of cached state would be flagged.
func TestContextConcurrentDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := matrix.Random(150, 150, 0.05, rng)
	want, err := Multiply(a, a, &Options{Algorithm: AlgHash, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := NewContext()
			for round := 0; round < 4; round++ {
				got, err := Multiply(a, a, &Options{Algorithm: AlgHash, Workers: 2, Context: ctx})
				if err != nil {
					errs[g] = err
					return
				}
				if !csrEqual(got, want) {
					errs[g] = errMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestContextWithDedicatedPool checks a caller-managed sched.Pool carried by
// the Context produces identical results.
func TestContextWithDedicatedPool(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := matrix.Random(120, 120, 0.05, rng)
	pool := sched.NewPool(3)
	defer pool.Close()
	ctx := NewContext()
	ctx.Pool = pool
	got, err := Multiply(a, a, &Options{Algorithm: AlgHash, Workers: 3, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Multiply(a, a, &Options{Algorithm: AlgHash, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(got, want) {
		t.Fatal("dedicated-pool result differs")
	}
}

// TestContextStatsPerCall checks that ExecStats counters through a reused
// Context stay per-call (cached accumulators must not leak lifetime counters
// into later calls' stats). B is hypersparse (wide), so both phases keep the
// hash tables whose counters are cached with them.
func TestContextStatsPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := matrix.Random(100, 100, 0.05, rng)
	wide := matrix.RandomWithDegree(100, 1<<16, 5, rng)
	ctx := NewContext()
	var first, second ExecStats
	if _, err := Multiply(a, wide, &Options{Algorithm: AlgHash, Workers: 2, Context: ctx, Stats: &first}); err != nil {
		t.Fatal(err)
	}
	if _, err := Multiply(a, wide, &Options{Algorithm: AlgHash, Workers: 2, Context: ctx, Stats: &second}); err != nil {
		t.Fatal(err)
	}
	var l1, l2 int64
	for _, w := range first.Workers {
		l1 += w.HashLookups
	}
	for _, w := range second.Workers {
		l2 += w.HashLookups
	}
	if l1 == 0 {
		t.Fatal("no lookups recorded on first call")
	}
	if l1 != l2 {
		t.Fatalf("lookup counters not per-call: first %d, second %d", l1, l2)
	}
}

// TestRecycleCounters pins what /metrics reports about output storage: a
// product's three arrays are counted as allocated, or — once the previous
// product was donated — as reused, byte for byte.
func TestRecycleCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := matrix.Random(80, 80, 0.1, rng)
	opt := &Options{Algorithm: AlgHash, Workers: 2, Context: NewContext()}
	counters := func() [4]int64 {
		return [4]int64{mOutputAllocated.Value(), mOutputAllocatedBytes.Value(), mOutputReused.Value(), mOutputReusedBytes.Value()}
	}
	multiply := func() (*matrix.CSR, [4]int64) {
		before := counters()
		c, err := Multiply(a, a, opt)
		if err != nil {
			t.Fatal(err)
		}
		after := counters()
		for i := range after {
			after[i] -= before[i]
		}
		return c, after
	}
	c, delta := multiply()
	bytes := 8*int64(len(c.RowPtr)) + 12*c.NNZ()
	if want := [4]int64{3, bytes, 0, 0}; delta != want {
		t.Errorf("first multiply: allocated/bytes/reused/bytes = %v, want %v", delta, want)
	}
	opt.Context.Recycle(c)
	if _, delta = multiply(); delta != [4]int64{0, 0, 3, bytes} {
		t.Errorf("multiply after Recycle: allocated/bytes/reused/bytes = %v, want %v", delta, [4]int64{0, 0, 3, bytes})
	}
}
