package accum

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestStampSetAgainstMap drives a StampSet through many generations —
// across the generation wrap, and across Reserve calls that grow the column
// space or ask for less than it already has — and checks every answer
// against a map rebuilt per generation. A stamp left by an earlier
// generation, including the ones the wrap would make current again, must
// never count as marked.
func TestStampSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 16
	s := NewStampSet(n)
	s.gen = math.MaxUint32 - 40 // the wrap falls inside the run
	for round := 0; round < 200; round++ {
		switch round {
		case 60:
			s.Reserve(n / 2) // smaller: a no-op
		case 90, 150:
			n *= 2
			s.Reserve(n)
		}
		if round > 45 && s.gen > 1000 {
			t.Fatalf("round %d: generation %d did not wrap", round, s.gen)
		}
		s.Clear()
		if len(s.stamp) != n {
			t.Fatalf("round %d: %d columns, want %d", round, len(s.stamp), n)
		}
		want := map[int32]bool{}
		for j := int32(0); j < int32(n); j++ {
			if s.Has(j) {
				t.Fatalf("round %d: column %d marked in a fresh generation", round, j)
			}
		}
		for op := 0; op < 3*n; op++ {
			col := int32(rng.Intn(n))
			if op%3 == 0 {
				// CountNew over a batch with a repeat inside it.
				batch := []int32{col, int32(rng.Intn(n)), col}
				fresh := 0
				for _, c := range batch {
					if !want[c] {
						fresh++
						want[c] = true
					}
				}
				if got := s.CountNew(batch); got != fresh {
					t.Fatalf("round %d: CountNew(%v) = %d, want %d", round, batch, got, fresh)
				}
				continue
			}
			if op%3 == 1 {
				// CopyNew stops at the first member, the batch's own repeat included.
				batch := []int32{col, int32(rng.Intn(n)), int32(rng.Intn(n)), col}
				dst := make([]int32, len(batch))
				added := len(batch)
				for y, c := range batch {
					if want[c] {
						added = y
						break
					}
					want[c] = true
				}
				if got := s.CopyNew(dst, batch); got != added || !slices.Equal(dst[:added], batch[:added]) {
					t.Fatalf("round %d: CopyNew(%v) = %d copying %v, want %d", round, batch, got, dst[:got], added)
				}
				continue
			}
			if got := s.Mark(col); got == want[col] {
				t.Fatalf("round %d: Mark(%d) = %v with membership %v", round, col, got, want[col])
			}
			want[col] = true
		}
		for j := int32(0); j < int32(n); j++ {
			if s.Has(j) != want[j] {
				t.Fatalf("round %d: Has(%d) = %v, want %v", round, j, s.Has(j), want[j])
			}
		}
	}
}
