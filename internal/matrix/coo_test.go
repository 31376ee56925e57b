package matrix

import (
	"math/rand"
	"testing"
)

func TestCOOToCSRMergesDuplicates(t *testing.T) {
	c := NewCOO(3, 3)
	c.Append(0, 1, 2)
	c.Append(0, 1, 3)
	c.Append(2, 0, 1)
	c.Append(1, 2, -1)
	c.Append(1, 2, 1) // cancels to zero, should be dropped
	m := c.ToCSR()
	mustValid(t, m)
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	d := m.ToDense()
	if d.At(0, 1) != 5 || d.At(2, 0) != 1 || d.At(1, 2) != 0 {
		t.Fatalf("wrong dense: %+v", d)
	}
}

func TestCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Random(15, 20, 0.25, rng)
	back := FromCSR(m).ToCSR()
	if !Equal(m, back) {
		t.Fatal("COO round trip changed matrix")
	}
}

func TestCOOValidateRejectsOutOfRange(t *testing.T) {
	c := NewCOO(2, 2)
	c.Append(0, 5, 1)
	if err := c.Validate(); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestSymmetrize(t *testing.T) {
	c := NewCOO(3, 3)
	c.Append(0, 1, 2)
	c.Append(1, 1, 5) // diagonal: must not be duplicated
	c.Symmetrize()
	m := c.ToCSR()
	d := m.ToDense()
	if d.At(0, 1) != 2 || d.At(1, 0) != 2 {
		t.Fatalf("not symmetric: %v %v", d.At(0, 1), d.At(1, 0))
	}
	if d.At(1, 1) != 5 {
		t.Fatalf("diagonal doubled: %v", d.At(1, 1))
	}
}

func TestEmptyCOO(t *testing.T) {
	m := NewCOO(4, 4).ToCSR()
	mustValid(t, m)
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
}
