package accum

import (
	"math/rand"
	"sort"
	"testing"
)

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{0, 1}, {1, 2}, {2, 4}, {3, 4}, {4, 8}, {7, 8}, {8, 16}, {1000, 1024}, {1024, 2048},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Fatalf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// accumulator is the interface shared by the hash table and the SPA, used
// to run the same conformance tests over both.
type accumulator interface {
	Reset()
	Len() int
	InsertSymbolic(key int32) bool
	Upsert(key int32) (*float64, bool)
	Lookup(key int32) (float64, bool)
	ExtractUnsorted(cols []int32, vals []float64) int
	ExtractSorted(cols []int32, vals []float64) int
}

func accumulators(bound int64) map[string]accumulator {
	return map[string]accumulator{
		"hash": NewHashTable(bound),
		"spa":  NewSPA(int(bound)),
	}
}

func TestAccumulatorsMatchMapReference(t *testing.T) {
	for name, acc := range accumulators(4096) {
		rng := rand.New(rand.NewSource(51))
		for trial := 0; trial < 20; trial++ {
			acc.Reset()
			ref := map[int32]float64{}
			nops := rng.Intn(2000)
			for op := 0; op < nops; op++ {
				key := int32(rng.Intn(500))
				v := rng.Float64()*2 - 1
				plusAcc(acc, key, v)
				ref[key] += v
			}
			if acc.Len() != len(ref) {
				t.Fatalf("%s trial %d: Len=%d want %d", name, trial, acc.Len(), len(ref))
			}
			cols := make([]int32, acc.Len())
			vals := make([]float64, acc.Len())
			n := acc.ExtractSorted(cols, vals)
			if n != len(ref) {
				t.Fatalf("%s: extracted %d want %d", name, n, len(ref))
			}
			if !sort.SliceIsSorted(cols, func(a, b int) bool { return cols[a] < cols[b] }) {
				t.Fatalf("%s: ExtractSorted not sorted", name)
			}
			for i, c := range cols {
				want := ref[c]
				if diff := vals[i] - want; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("%s: key %d = %v, want %v", name, c, vals[i], want)
				}
			}
		}
	}
}

func TestAccumulatorSymbolicMatchesNumericCount(t *testing.T) {
	for name, acc := range accumulators(4096) {
		rng := rand.New(rand.NewSource(52))
		keys := make([]int32, 300)
		for i := range keys {
			keys[i] = int32(rng.Intn(100))
		}
		acc.Reset()
		distinct := map[int32]bool{}
		for _, k := range keys {
			isNew := acc.InsertSymbolic(k)
			if isNew == distinct[k] {
				t.Fatalf("%s: InsertSymbolic(%d) new=%v but seen=%v", name, k, isNew, distinct[k])
			}
			distinct[k] = true
		}
		if acc.Len() != len(distinct) {
			t.Fatalf("%s: Len=%d want %d", name, acc.Len(), len(distinct))
		}
	}
}

func TestAccumulatorLookup(t *testing.T) {
	for name, acc := range accumulators(1024) {
		acc.Reset()
		plusAcc(acc, 7, 1.5)
		plusAcc(acc, 7, 2.5)
		if v, ok := acc.Lookup(7); !ok || v != 4 {
			t.Fatalf("%s: Lookup(7) = %v,%v", name, v, ok)
		}
		if _, ok := acc.Lookup(8); ok {
			t.Fatalf("%s: Lookup(8) should miss", name)
		}
	}
}

func TestAccumulatorResetClears(t *testing.T) {
	for name, acc := range accumulators(1024) {
		acc.Reset()
		for k := int32(0); k < 50; k++ {
			plusAcc(acc, k, 1)
		}
		acc.Reset()
		if acc.Len() != 0 {
			t.Fatalf("%s: Len=%d after Reset", name, acc.Len())
		}
		if _, ok := acc.Lookup(10); ok {
			t.Fatalf("%s: stale entry after Reset", name)
		}
		// Table is fully reusable after reset.
		plusAcc(acc, 10, 3)
		if v, ok := acc.Lookup(10); !ok || v != 3 {
			t.Fatalf("%s: reuse after Reset broken", name)
		}
	}
}

func TestHashTableNearFullLoad(t *testing.T) {
	// The paper sizes tables at the flop upper bound, so load factors can
	// approach 1. Fill to capacity-1 and verify correctness (capacity is
	// NextPow2(bound) > bound, guaranteeing an empty slot).
	h := NewHashTable(63) // capacity 64
	for k := int32(0); k < 63; k++ {
		plusAcc(h, k*64, float64(k)) // same slot modulo: worst-case probing
	}
	if h.Len() != 63 {
		t.Fatalf("Len = %d", h.Len())
	}
	for k := int32(0); k < 63; k++ {
		if v, ok := h.Lookup(k * 64); !ok || v != float64(k) {
			t.Fatalf("Lookup(%d) = %v,%v", k*64, v, ok)
		}
	}
	if h.Probes() == 0 {
		t.Fatal("expected collisions at near-full load")
	}
}

func TestHashTableGrow(t *testing.T) {
	h := NewHashTable(15) // capacity 16
	h.SetGrow(true)
	for k := int32(0); k < 1000; k++ {
		plusAcc(h, k, 1)
	}
	if h.Len() != 1000 {
		t.Fatalf("Len = %d", h.Len())
	}
	if h.Cap() < 1000 {
		t.Fatalf("Cap = %d, table did not grow", h.Cap())
	}
	for k := int32(0); k < 1000; k++ {
		if _, ok := h.Lookup(k); !ok {
			t.Fatalf("key %d lost during growth", k)
		}
	}
}

func TestHashTableReserveShrinksAndClears(t *testing.T) {
	h := NewHashTable(1000)
	plusAcc(h, 1, 1)
	h.Reserve(10)
	if h.Len() != 0 {
		t.Fatal("Reserve did not clear")
	}
	if h.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", h.Cap())
	}
}

func TestUpsertNonPlusSemiring(t *testing.T) {
	// The driver applies the ring operation to the Upsert slot; max here
	// stands in for any non-plus additive operation.
	h := NewHashTable(64)
	maxAcc(h, 3, 5)
	maxAcc(h, 3, 2)
	maxAcc(h, 3, 9)
	if v, _ := h.Lookup(3); v != 9 {
		t.Fatalf("hash max = %v", v)
	}
}

func TestProbeCountersAdvance(t *testing.T) {
	h := NewHashTable(15) // capacity 16: collisions guaranteed below
	for k := int32(0); k < 15; k++ {
		h.InsertSymbolic(k * 16)
	}
	if h.Lookups() != 15 {
		t.Fatalf("Lookups = %d", h.Lookups())
	}
	if h.Probes() == 0 {
		t.Fatal("expected probes > 0")
	}
}
