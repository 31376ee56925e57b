package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNaiveMultiplyAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		a := Random(1+rng.Intn(15), 1+rng.Intn(15), 0.3, rng)
		b := Random(a.Cols, 1+rng.Intn(15), 0.3, rng)
		c := NaiveMultiply(a, b)
		mustValid(t, c)
		want := a.ToDense().Mul(b.ToDense())
		if !c.ToDense().EqualApprox(want, 1e-12) {
			t.Fatalf("trial %d: naive product disagrees with dense", trial)
		}
	}
}

func TestNaiveMultiplyIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := Random(10, 10, 0.3, rng)
	c := NaiveMultiply(m, Identity(10))
	if !EqualApprox(m, c, 1e-15) {
		t.Fatal("M*I != M")
	}
	c = NaiveMultiply(Identity(10), m)
	if !EqualApprox(m, c, 1e-15) {
		t.Fatal("I*M != M")
	}
}

func TestEqualApproxToleratesReordering(t *testing.T) {
	a := &CSR{
		Rows: 1, Cols: 4,
		RowPtr: []int64{0, 2},
		ColIdx: []int32{3, 1},
		Val:    []float64{4, 2},
		Sorted: false,
	}
	b := &CSR{
		Rows: 1, Cols: 4,
		RowPtr: []int64{0, 2},
		ColIdx: []int32{1, 3},
		Val:    []float64{2, 4},
		Sorted: true,
	}
	if !EqualApprox(a, b, 0) {
		t.Fatal("EqualApprox should canonicalize order")
	}
}

func TestEqualApproxDetectsDifferences(t *testing.T) {
	a := Identity(3)
	b := Identity(3)
	b.Val[1] = 2
	if EqualApprox(a, b, 1e-9) {
		t.Fatal("EqualApprox missed a value difference")
	}
	c := Identity(3)
	c.ColIdx[1] = 0 // moves an entry
	if EqualApprox(a, c, 1e-9) {
		t.Fatal("EqualApprox missed a structural difference")
	}
}

func TestEqualApproxTreatsTinyAsZero(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	// b has an extra entry below tolerance.
	b.ColIdx = append(b.ColIdx[:1], append([]int32{1}, b.ColIdx[1:]...)...)
	b.Val = append(b.Val[:1], append([]float64{1e-14}, b.Val[1:]...)...)
	b.RowPtr[1] = 2
	b.RowPtr[2] = 3
	mustValid(t, b)
	if !EqualApprox(a, b, 1e-12) {
		t.Fatal("tiny extra entry should be within tolerance")
	}
	if EqualApprox(a, b, 1e-16) {
		t.Fatal("tight tolerance should reject extra entry")
	}
}

// TestEqualApproxNonFinite: NaN and ±Inf match by class and sign, never by
// tolerance — every comparison against a NaN difference is false, and
// tol·Inf swallows any difference, so "beyond tol" alone accepted them all.
func TestEqualApproxNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	one := func(v float64) *CSR {
		return &CSR{Rows: 1, Cols: 2, RowPtr: []int64{0, 1}, ColIdx: []int32{0}, Val: []float64{v}, Sorted: true}
	}
	empty := NewCSR(1, 2)
	for _, tc := range []struct {
		name string
		a, b *CSR
		want bool
	}{
		{"NaN vs NaN", one(nan), one(nan), true},
		{"+Inf vs +Inf", one(inf), one(inf), true},
		{"-Inf vs -Inf", one(-inf), one(-inf), true},
		{"NaN vs finite", one(nan), one(1), false},
		{"finite vs NaN", one(1), one(nan), false},
		{"NaN vs +Inf", one(nan), one(inf), false},
		{"+Inf vs finite", one(inf), one(1e300), false},
		{"finite vs -Inf", one(-1e300), one(-inf), false},
		{"+Inf vs -Inf", one(inf), one(-inf), false},
		{"unmatched NaN", one(nan), empty, false},
		{"unmatched NaN, other side", empty, one(nan), false},
		{"unmatched +Inf", one(inf), empty, false},
		{"unmatched -Inf, other side", empty, one(-inf), false},
	} {
		if got := EqualApprox(tc.a, tc.b, 1e-9); got != tc.want {
			t.Errorf("%s: EqualApprox = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ via the naive reference.
func TestNaiveTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(1+rng.Intn(12), 1+rng.Intn(12), 0.3, rng)
		b := Random(a.Cols, 1+rng.Intn(12), 0.3, rng)
		left := NaiveMultiply(a, b).Transpose()
		right := NaiveMultiply(b.Transpose(), a.Transpose())
		return EqualApprox(left, right, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: A·(B+B) = 2·(A·B). Exercises value combination.
func TestNaiveLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(1+rng.Intn(12), 1+rng.Intn(12), 0.3, rng)
		b := Random(a.Cols, 1+rng.Intn(12), 0.3, rng)
		b2 := b.Clone()
		for i := range b2.Val {
			b2.Val[i] *= 2
		}
		c := NaiveMultiply(a, b)
		c2 := NaiveMultiply(a, b2)
		for i := range c.Val {
			c.Val[i] *= 2
		}
		return EqualApprox(c, c2, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
