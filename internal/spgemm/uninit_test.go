package spgemm

import (
	"testing"

	"repro/internal/testalloc"
)

// sinkF64 and sinkI32 keep the arrays TestUninit draws on the heap, as a
// product's are.
var (
	sinkF64 []float64
	sinkI32 []int32
)

// TestUninit: uninit returns n entries, no capacity past them, an empty array
// at n = 0, and allocates what make does for the same n, so a product's
// allocated bytes read the same either way.
func TestUninit(t *testing.T) {
	for _, n := range []int64{0, 1, 3, 17, 1000, 1 << 13, 1<<20 + 3} {
		f, c := uninit[float64](n), uninit[int32](n)
		if int64(len(f)) != n || int64(cap(f)) != n || int64(len(c)) != n || int64(cap(c)) != n {
			t.Errorf("n = %d: float64 len %d cap %d, int32 len %d cap %d", n, len(f), cap(f), len(c), cap(c))
		}
		if n == 0 && (f == nil || c == nil) {
			t.Error("n = 0: a nil array, want an empty one as make returns")
		}
		for i := range f { // every entry is writable
			f[i], c[i] = float64(i), int32(i)
		}
		if n > 0 && (f[n-1] != float64(n-1) || c[n-1] != int32(n-1)) {
			t.Errorf("n = %d: the last entry did not keep its write", n)
		}
		for _, w := range []struct {
			name        string
			fresh, made func()
		}{
			{"float64", func() { sinkF64 = uninit[float64](n) }, func() { sinkF64 = make([]float64, n) }},
			{"int32", func() { sinkI32 = uninit[int32](n) }, func() { sinkI32 = make([]int32, n) }},
		} {
			if got, want := testalloc.Bytes(w.fresh), testalloc.Bytes(w.made); got != want {
				t.Errorf("n = %d, %s: uninit allocated %d B, make %d B", n, w.name, got, want)
			}
		}
	}
	sinkF64, sinkI32 = nil, nil
}
