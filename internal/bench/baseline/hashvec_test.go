package baseline

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/accum"
)

// plusAcc folds v into key's entry with conventional addition via Upsert,
// as the two-phase driver does.
func plusAcc(a interface {
	Upsert(int32) (*float64, bool)
}, key int32, v float64) {
	p, fresh := a.Upsert(key)
	if fresh {
		*p = v
	} else {
		*p += v
	}
}

func TestHashVecWidths(t *testing.T) {
	for _, w := range []int{2, 4, 8, 16} {
		h := newHashVecTable(100, w)
		ref := map[int32]float64{}
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < 500; i++ {
			k := int32(rng.Intn(90))
			plusAcc(h, k, 1)
			ref[k]++
		}
		if h.Len() != len(ref) {
			t.Fatalf("width %d: Len=%d want %d", w, h.Len(), len(ref))
		}
		for k, want := range ref {
			if v, ok := h.Lookup(k); !ok || v != want {
				t.Fatalf("width %d key %d: %v,%v want %v", w, k, v, ok, want)
			}
		}
		if _, ok := h.Lookup(95); ok {
			t.Fatalf("width %d: absent key found", w)
		}
	}
}

func TestHashVecBadWidthPanics(t *testing.T) {
	for _, w := range []int{0, 1, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d: expected panic", w)
				}
			}()
			newHashVecTable(10, w)
		}()
	}
}

func TestTwoLevelOverflowsToL2(t *testing.T) {
	tl := newTwoLevelHash(16)
	// Insert far more keys than L1 can hold: overflow must engage.
	for k := int32(0); k < 500; k++ {
		plusAcc(tl, k, float64(k))
	}
	if tl.Len() != 500 {
		t.Fatalf("Len = %d", tl.Len())
	}
	if tl.Overflows() == 0 {
		t.Fatal("expected level-2 overflow with tiny level 1")
	}
	for k := int32(0); k < 500; k++ {
		if v, ok := tl.Lookup(k); !ok || v != float64(k) {
			t.Fatalf("Lookup(%d) = %v,%v", k, v, ok)
		}
	}
}

func TestTwoLevelBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-pow2 size")
		}
	}()
	newTwoLevelHash(100)
}

// TestTwoLevelOverflowCounter forces level-1 exhaustion with a tiny L1 and
// checks the delegation counters: every overflow is one level-2 operation,
// and the table still returns correct contents.
func TestTwoLevelOverflowCounter(t *testing.T) {
	tl := newTwoLevelHash(16)
	if tl.Overflows() != 0 || tl.Lookups() != 0 {
		t.Fatal("fresh table has nonzero counters")
	}
	// 64 distinct keys into 16 L1 slots with probe bound 8 must overflow.
	for k := int32(0); k < 64; k++ {
		plusAcc(tl, k, float64(k))
	}
	if tl.Overflows() == 0 {
		t.Fatal("no overflows recorded for 64 keys in a 16-slot L1")
	}
	if tl.Lookups() != tl.Overflows() {
		t.Fatalf("L2 lookups %d != overflow delegations %d", tl.Lookups(), tl.Overflows())
	}
	if tl.Probes() < 0 {
		t.Fatalf("probes = %d", tl.Probes())
	}
	if tl.Len() != 64 {
		t.Fatalf("len = %d, want 64", tl.Len())
	}
	for k := int32(0); k < 64; k++ {
		v, ok := tl.Lookup(k)
		if !ok || v != float64(k) {
			t.Fatalf("key %d: %v %v", k, v, ok)
		}
	}
	// Symbolic insertion also counts delegations.
	before := tl.Overflows()
	tl.Reset()
	for k := int32(0); k < 64; k++ {
		tl.InsertSymbolic(k)
	}
	if tl.Overflows() <= before {
		t.Fatal("symbolic overflow not counted")
	}
}

// TestHashFamiliesAgreeQuick is the property that ties the baselines' tables
// to the kernel's: for any operation sequence, including a fold that is not
// addition, the chunked and two-level tables extract, sorted and unsorted,
// exactly what accum.HashTable does.
func TestHashFamiliesAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := accum.NewHashTable(512)
		others := []rowAcc{newHashVecTable(512, chunkWidth), newTwoLevelHash(32)}
		accs := append([]rowAcc{h}, others...)
		n := rng.Intn(400)
		for i := 0; i < n; i++ {
			k := int32(rng.Intn(200))
			v := float64(rng.Intn(10))
			fresh := h.InsertSymbolic(k)
			for _, acc := range others {
				if acc.InsertSymbolic(k) != fresh {
					return false
				}
			}
			for _, acc := range accs {
				// Even keys sum, odd keys keep the largest value.
				switch p, first := acc.Upsert(k); {
				case first:
					*p = v
				case k%2 == 0:
					*p += v
				default:
					*p = max(*p, v)
				}
			}
		}
		m := h.Len()
		want := [2][]int32{make([]int32, m), make([]int32, m)}
		wantVals := [2][]float64{make([]float64, m), make([]float64, m)}
		h.ExtractUnsorted(want[0], wantVals[0])
		h.ExtractSorted(want[1], wantVals[1])
		ref := map[int32]float64{}
		for i, k := range want[0] {
			ref[k] = wantVals[0][i]
		}
		for _, acc := range others {
			if acc.Len() != m {
				return false
			}
			cols, vals := make([]int32, m), make([]float64, m)
			if acc.ExtractUnsorted(cols, vals) != m {
				return false
			}
			for i, k := range cols {
				if v, ok := ref[k]; !ok || v != vals[i] {
					return false
				}
			}
			if acc.ExtractSorted(cols, vals) != m {
				return false
			}
			for i := range cols {
				if cols[i] != want[1][i] || vals[i] != wantVals[1][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAblationChunkWidth sweeps the HashVector chunk width (the
// emulated vector-register width: 8 = AVX2 on Haswell, 16 = AVX-512 on KNL).
func BenchmarkAblationChunkWidth(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	keys := make([]int32, 4096)
	for i := range keys {
		keys[i] = rng.Int31n(8192)
	}
	for _, w := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			h := newHashVecTable(8192, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Reset()
				for _, k := range keys {
					plusAcc(h, k, 1)
				}
			}
		})
	}
}
