package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/spgemm"
)

func TestFacadeMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := matrix.Random(20, 20, 0.2, rng)
	want := matrix.NaiveMultiply(a, a)
	ctx := NewContext()
	for i := 0; i < 2; i++ {
		got, err := Multiply(a, a, &spgemm.Options{Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.EqualApprox(want, got, 1e-10) {
			t.Fatalf("round %d: wrong product through the facade", i)
		}
	}
}
