package semiring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPlusTimesBasics(t *testing.T) {
	if s := (PlusTimesF64{}); s.Add(2, 3) != 5 || s.Mul(2, 3) != 6 || s.Zero() != 0 {
		t.Fatal("plus-times<f64> wrong")
	}
}

func TestOrAndTruthTable(t *testing.T) {
	s := OrAndBool{}
	cases := []struct{ a, b, or, and bool }{
		{false, false, false, false},
		{false, true, true, false},
		{true, false, true, false},
		{true, true, true, true},
	}
	for _, c := range cases {
		if got := s.Add(c.a, c.b); got != c.or {
			t.Fatalf("Add(%v,%v)=%v want %v", c.a, c.b, got, c.or)
		}
		if got := s.Mul(c.a, c.b); got != c.and {
			t.Fatalf("Mul(%v,%v)=%v want %v", c.a, c.b, got, c.and)
		}
	}
	if s.Zero() {
		t.Fatal("or-and identity must be false")
	}
}

// TestOrAndU64Table pins the word ring bit-wise: the all-ones word is the Mul
// identity, Add is idempotent, and Zero is the Add identity that absorbs Mul.
func TestOrAndU64Table(t *testing.T) {
	s := OrAndU64{}
	for _, x := range []uint64{0, 1, 1 << 63, 0x9E3779B97F4A7C15, ^uint64(0)} {
		if got := s.Mul(x, ^uint64(0)); got != x {
			t.Errorf("Mul(%#x, ^0) = %#x", x, got)
		}
		if got := s.Add(x, x); got != x {
			t.Errorf("Add(%#x, %#x) = %#x, want idempotent", x, x, got)
		}
		if got := s.Add(x, s.Zero()); got != x {
			t.Errorf("Add(%#x, Zero) = %#x", x, got)
		}
		if got := s.Mul(x, s.Zero()); got != s.Zero() {
			t.Errorf("Mul(%#x, Zero) = %#x, want Zero to absorb", x, got)
		}
	}
	if s.Add(0xF0, 0x0F) != 0xFF || s.Mul(0xF0, 0x3C) != 0x30 {
		t.Fatal("or-and<u64> ops wrong")
	}
}

func TestMinPlusIdentityAndOps(t *testing.T) {
	s := MinPlusF64{}
	if !math.IsInf(s.Zero(), 1) {
		t.Fatal("min-plus identity must be +Inf")
	}
	if s.Add(3, 5) != 3 || s.Mul(3, 5) != 8 {
		t.Fatal("min-plus ops wrong")
	}
	if s.Add(7, s.Zero()) != 7 {
		t.Fatal("Add(x, Zero) != x")
	}
}

func TestMaxTimes(t *testing.T) {
	s := MaxTimesF64{}
	if s.Add(3, 5) != 5 || s.Mul(3, 5) != 15 || s.Zero() != 0 {
		t.Fatal("max-times wrong")
	}
}

// TestMinMaxAddNaN: min-plus and max-times Add commute under NaN — a NaN on
// either side is the sum — so a kernel folding in its own order agrees with
// the oracle folding in another.
func TestMinMaxAddNaN(t *testing.T) {
	nan := math.NaN()
	for _, x := range []float64{-1, 0, 2.5, math.Inf(1), math.Inf(-1), nan} {
		for _, add := range []func(a, b float64) float64{MinPlusF64{}.Add, MaxTimesF64{}.Add} {
			if l, r := add(nan, x), add(x, nan); !math.IsNaN(l) || !math.IsNaN(r) {
				t.Errorf("Add(NaN, %v) = %v, Add(%v, NaN) = %v; want NaN both ways", x, l, x, r)
			}
		}
	}
}

// checkLaws draws triples from small (small non-negative integers, exact in
// every V) and checks: Add commutative and associative, Zero the Add identity,
// Mul distributive over Add.
func checkLaws[V comparable, R Ring[V]](t *testing.T, name string, r R, small func(int) V) {
	t.Helper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := small(rng.Intn(10)), small(rng.Intn(10)), small(rng.Intn(10))
		if r.Add(a, b) != r.Add(b, a) {
			return false
		}
		if r.Add(r.Add(a, b), c) != r.Add(a, r.Add(b, c)) {
			return false
		}
		if r.Add(a, r.Zero()) != a {
			return false
		}
		return r.Mul(a, r.Add(b, c)) == r.Add(r.Mul(a, b), r.Mul(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// TestSemiringLaws holds every shipped ring to the semiring laws.
func TestSemiringLaws(t *testing.T) {
	f64 := func(n int) float64 { return float64(n) }
	checkLaws(t, "plus-times<f64>", PlusTimesF64{}, f64)
	checkLaws(t, "or-and<bool>", OrAndBool{}, func(n int) bool { return n%2 == 1 })
	// Full-width words: small n times the golden-ratio constant sets bits
	// across all 64 positions, the top one included.
	checkLaws(t, "or-and<u64>", OrAndU64{}, func(n int) uint64 { return uint64(n) * 0x9E3779B97F4A7C15 })
	checkLaws(t, "min-plus<f64>", MinPlusF64{}, f64)
	checkLaws(t, "max-times<f64>", MaxTimesF64{}, f64)
}
