package accum

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMergeHeapBasicOrdering(t *testing.T) {
	h := NewMergeHeap(8)
	for _, c := range []int32{5, 1, 9, 3, 7} {
		h.Push(c, 1, 0, 1)
	}
	if !h.CheckInvariant() {
		t.Fatal("heap invariant broken after pushes")
	}
	var got []int32
	for h.Len() > 0 {
		c, _, _ := h.Min()
		got = append(got, c)
		h.PopMin()
	}
	want := []int32{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestMergeHeapKWayMerge(t *testing.T) {
	// Merge 3 sorted "rows" and verify global sorted order with the real
	// Advance/Pop protocol the SpGEMM driver uses.
	bcols := []int32{1, 4, 8 /* row1 */, 2, 4, 6 /* row2 */, 0, 9}
	rows := [][2]int64{{0, 3}, {3, 6}, {6, 8}}
	h := NewMergeHeap(3)
	for _, r := range rows {
		h.Push(bcols[r[0]], 1, r[0], r[1])
	}
	var got []int32
	for h.Len() > 0 {
		c, _, pos := h.Min()
		got = append(got, c)
		_, end := h.MinPosEnd()
		if pos+1 < end {
			h.AdvanceMin(bcols[pos+1])
		} else {
			h.PopMin()
		}
		if !h.CheckInvariant() {
			t.Fatal("heap invariant broken mid-merge")
		}
	}
	want := []int32{0, 1, 2, 4, 4, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestMergeHeapReset(t *testing.T) {
	h := NewMergeHeap(4)
	h.Push(1, 1, 0, 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len = %d after Reset", h.Len())
	}
	h.Push(2, 1, 0, 1)
	if c, _, _ := h.Min(); c != 2 {
		t.Fatal("heap unusable after Reset")
	}
}

// Property: merging random sorted sequences yields the sorted multiset union.
func TestMergeHeapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		var bcols []int32
		var rows [][2]int64
		var all []int32
		for r := 0; r < k; r++ {
			n := rng.Intn(10)
			start := int64(len(bcols))
			row := make([]int32, n)
			for i := range row {
				row[i] = int32(rng.Intn(50))
			}
			sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
			bcols = append(bcols, row...)
			all = append(all, row...)
			if n > 0 {
				rows = append(rows, [2]int64{start, start + int64(n)})
			}
		}
		h := NewMergeHeap(int64(k))
		for _, r := range rows {
			h.Push(bcols[r[0]], 1, r[0], r[1])
		}
		var got []int32
		for h.Len() > 0 {
			c, _, pos := h.Min()
			got = append(got, c)
			_, end := h.MinPosEnd()
			if pos+1 < end {
				h.AdvanceMin(bcols[pos+1])
			} else {
				h.PopMin()
			}
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		if len(got) != len(all) {
			return false
		}
		for i := range all {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSPAMatchesMapReference(t *testing.T) {
	s := NewSPA(300)
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		s.Reset()
		ref := map[int32]float64{}
		for op := 0; op < 1000; op++ {
			k := int32(rng.Intn(300))
			v := rng.Float64()
			plusAcc(s, k, v)
			ref[k] += v
		}
		if s.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
		}
		cols := make([]int32, s.Len())
		vals := make([]float64, s.Len())
		s.ExtractSorted(cols, vals)
		for i, c := range cols {
			if diff := vals[i] - ref[c]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("key %d: %v want %v", c, vals[i], ref[c])
			}
		}
		if !sort.SliceIsSorted(cols, func(a, b int) bool { return cols[a] < cols[b] }) {
			t.Fatal("SPA sorted extraction not sorted")
		}
	}
}

func TestSPAResetIsO1AndCorrect(t *testing.T) {
	s := NewSPA(100)
	plusAcc(s, 5, 1)
	s.Reset()
	if _, ok := s.Lookup(5); ok {
		t.Fatal("stale entry after Reset")
	}
	if s.Len() != 0 {
		t.Fatal("Len after Reset")
	}
	// Generation stamps must keep rows independent across many resets.
	for row := 0; row < 1000; row++ {
		plusAcc(s, int32(row%100), 1)
		if s.Len() != 1 {
			t.Fatalf("row %d: Len = %d", row, s.Len())
		}
		s.Reset()
	}
}

func TestSPAGenerationWraparound(t *testing.T) {
	s := NewSPA(10)
	plusAcc(s, 3, 7)
	// Force the generation counter to the wrap point.
	s.marks.gen = ^uint32(0)
	s.Reset() // wraps to 1 after clearing stamps
	if _, ok := s.Lookup(3); ok {
		t.Fatal("entry survived generation wraparound")
	}
	plusAcc(s, 4, 1)
	if v, ok := s.Lookup(4); !ok || v != 1 {
		t.Fatal("SPA broken after wraparound")
	}
}

func TestSPASymbolic(t *testing.T) {
	s := NewSPA(50)
	if !s.InsertSymbolic(7) {
		t.Fatal("first insert should be new")
	}
	if s.InsertSymbolic(7) {
		t.Fatal("second insert should not be new")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSPAReserve(t *testing.T) {
	s := NewSPA(10)
	s.Reserve(1000)
	plusAcc(s, 999, 2)
	if v, ok := s.Lookup(999); !ok || v != 2 {
		t.Fatal("Reserve did not grow")
	}
	// Shrinking request is a no-op.
	s.Reserve(5)
	if v, ok := s.Lookup(999); !ok || v != 2 {
		t.Fatal("Reserve(smaller) lost data")
	}
}

func TestSPAUpsertNonPlusSemiring(t *testing.T) {
	s := NewSPA(10)
	minAcc := func(key int32, v float64) {
		p, fresh := s.Upsert(key)
		if fresh || v < *p {
			*p = v
		}
	}
	minAcc(2, 9)
	minAcc(2, 4)
	minAcc(2, 6)
	if v, _ := s.Lookup(2); v != 4 {
		t.Fatalf("min = %v", v)
	}
}
