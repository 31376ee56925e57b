package difftest

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// FuzzMultiplyDifferential is the native fuzz entry: the fuzzer drives the
// shape, density, sortedness and algorithm choice, the harness builds the
// matrices deterministically from the seed and cross-checks against the
// oracle, over float64 plus-times and over the OrAndU64 word ring (AsU64
// views, whose products are mostly 0 and must still be stored). With masked
// set, both instead run the count leg (spgemm.MaskedCount under every mask
// shape of masksFor). Run with
//
//	go test -fuzz=FuzzMultiplyDifferential ./internal/spgemm/difftest
//
// The seed corpus covers each algorithm once, the count leg over sorted and
// unsorted inputs, square and rectangular shapes, zero
// dimensions, a one-column B and unsorted inputs.
func FuzzMultiplyDifferential(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(8), uint8(16), uint8(0), false, false, false)
	f.Add(int64(2), uint8(16), uint8(4), uint8(32), uint8(40), uint8(1), true, false, false)
	f.Add(int64(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), false, false, false)
	f.Add(int64(4), uint8(9), uint8(0), uint8(7), uint8(5), uint8(4), false, true, false)
	// A one-column B: every output row is sized by its bound and folded into
	// its one slot.
	f.Add(int64(5), uint8(24), uint8(24), uint8(1), uint8(20), uint8(1), false, false, false)
	for i := range Algorithms {
		f.Add(int64(100+i), uint8(12), uint8(12), uint8(12), uint8(30), uint8(i), true, true, false)
	}
	for i := 0; i < 8; i++ {
		// Square (the "self" mask applies) and rectangular, each over both
		// input orders; the count has no output order, so unsortedOut only
		// varies the seed.
		cols := uint8(12 + 9*(i/4))
		f.Add(int64(200+i), uint8(12), uint8(12), cols, uint8(30), uint8(0), i&1 != 0, i&2 != 0, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, rowsA, inner, colsB, density, algPick uint8, shuffleB, unsortedOut, masked bool) {
		rng := rand.New(rand.NewSource(seed))
		a := randomCSR(rng, int(rowsA)%64, int(inner)%64, int(density)*2)
		b := randomCSR(rng, int(inner)%64, int(colsB)%64, int(density)*2)
		if shuffleB && b.NNZ() > 0 {
			b = gen.Unsorted(b, rng)
		}
		workers := 1 + int(seed%4)
		if masked {
			if err := errors.Join(CheckMaskedCount("fuzz", a, b, nil), CheckMaskedCount("fuzz/u64", AsU64(a), AsU64(b), nil)); err != nil {
				t.Fatal(err)
			}
			return
		}
		alg := Algorithms[int(algPick)%len(Algorithms)]
		c := Case{Name: "fuzz", A: a, B: b}
		if err := Check(c, alg, unsortedOut, workers); err != nil {
			t.Fatal(err)
		}
		if err := CheckRing("fuzz/u64", semiring.OrAndU64{}, AsU64(a), AsU64(b), alg, unsortedOut, workers, ExactEq); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFuzzSeedsDirect runs the fuzz body over a fixed sweep without the fuzz
// engine, so plain `go test` (and CI's -race pass) covers the same ground.
func TestFuzzSeedsDirect(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(48)
		inner := rng.Intn(48)
		cols := rng.Intn(48)
		a := randomCSR(rng, rows, inner, rng.Intn(120))
		b := randomCSR(rng, inner, cols, rng.Intn(120))
		if seed%3 == 1 && b.NNZ() > 0 {
			b = gen.Unsorted(b, rng)
		}
		c := Case{Name: "sweep", A: a, B: b}
		want := matrix.NaiveMultiply(a, b)
		for _, alg := range Algorithms {
			got, err := spgemm.Multiply(a, b, &spgemm.Options{Algorithm: alg, Workers: 1 + int(seed%4)})
			if err != nil {
				if spgemm.RequiresSortedInput(alg) && !b.Sorted {
					continue
				}
				t.Fatalf("seed %d %s/%v: %v", seed, c.Name, alg, err)
			}
			if err := Equivalent(got, want); err != nil {
				t.Errorf("seed %d %s/%v: %v", seed, c.Name, alg, err)
			}
		}
	}
}
