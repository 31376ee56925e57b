package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

func TestFacadeMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := matrix.Random(20, 20, 0.2, rng)
	want := matrix.NaiveMultiply(a, a)
	for _, alg := range []Algorithm{AlgAuto, AlgHash, AlgHashVec, AlgHeap, AlgSharded} {
		got, err := Multiply(a, a, &Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !matrix.EqualApprox(want, got, 1e-10) {
			t.Fatalf("%v: wrong product through facade", alg)
		}
	}
}

func TestFacadeContextAndPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := matrix.Random(25, 25, 0.2, rng)
	want := matrix.NaiveMultiply(a, a)

	ctx := NewContext()
	for i := 0; i < 3; i++ {
		got, err := Multiply(a, a, &Options{Algorithm: AlgHash, Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.EqualApprox(want, got, 1e-10) {
			t.Fatalf("round %d: wrong product through context facade", i)
		}
	}

	plan, err := NewPlan(a, a, &Options{Algorithm: AlgHash})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := plan.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.EqualApprox(want, got, 1e-10) {
			t.Fatalf("round %d: wrong product through plan facade", i)
		}
	}
	plan.Invalidate()
	if _, err := plan.Execute(); err != ErrPlanStale {
		t.Fatalf("invalidated plan: err = %v, want ErrPlanStale", err)
	}
}

func TestFacadeRecommendAndFlop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := matrix.Random(30, 30, 0.2, rng)
	for _, uc := range []UseCase{UseSquare, UseTallSkinny, UseTriangle} {
		if alg := Recommend(a, a, true, uc); alg == AlgAuto {
			t.Fatalf("%v: Recommend returned AlgAuto", uc)
		}
	}
	total, perRow := Flop(a, a)
	wantTotal, _ := matrix.Flop(a, a)
	if total != wantTotal || len(perRow) != a.Rows {
		t.Fatal("Flop facade mismatch")
	}
}
