package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHadamardDimensionMismatch(t *testing.T) {
	if _, err := HadamardG(NewCSR(2, 2), NewCSR(3, 2)); err == nil {
		t.Fatal("expected error")
	}
	if _, err := HadamardG(NewCSR(2, 2), NewCSR(2, 3)); err == nil {
		t.Fatal("expected error")
	}
}

func TestHadamardUnsortedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(802))
	a := Random(8, 8, 0.4, rng)
	au := a.ShuffleRowEntries(rng)
	c1, err := HadamardG(a, a)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := HadamardG(au, au)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(c1, c2) {
		t.Fatal("unsorted input changed Hadamard result")
	}
	// Inputs must not be mutated.
	if au.Sorted {
		t.Fatal("input was sorted in place")
	}
}

func TestHadamardBasic(t *testing.T) {
	a := FromDense(&Dense{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 0}})
	b := FromDense(&Dense{Rows: 2, Cols: 2, Data: []float64{5, 0, 2, 7}})
	c, err := HadamardG(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mustValid(t, c)
	d := c.ToDense()
	if d.At(0, 0) != 5 || d.At(1, 0) != 6 {
		t.Fatalf("product wrong: %+v", d)
	}
	if c.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 (pattern intersection)", c.NNZ())
	}
}

func TestHadamardAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(1+rng.Intn(15), 1+rng.Intn(15), 0.4, rng)
		b := Random(a.Rows, a.Cols, 0.4, rng)
		c, err := HadamardG(a, b)
		if err != nil {
			return false
		}
		da, db, dc := a.ToDense(), b.ToDense(), c.ToDense()
		for i := range dc.Data {
			if dc.Data[i] != da.Data[i]*db.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSum(t *testing.T) {
	a := FromDense(&Dense{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}})
	if a.Sum() != 10 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if !MapValues(a, func(v float64) bool { return v == 4 }).Sum() {
		t.Fatal("bool Sum is not the OR of the stored values")
	}
}
