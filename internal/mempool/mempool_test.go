package mempool

import (
	"testing"
)

// TestGrow checks the one ensure-capacity step: a request below the
// high-water mark reuses the array and allocates nothing, one past it
// reallocates, and LiveBytes counts exactly the bytes each growth added.
func TestGrow(t *testing.T) {
	var buf []int64
	live0 := LiveBytes()
	a := Grow(&buf, 10)
	if len(a) != 10 || LiveBytes()-live0 != 80 {
		t.Fatalf("len %d, live grew %d bytes, want 10 and 80", len(a), LiveBytes()-live0)
	}
	a[5] = 42
	if b := Grow(&buf, 4); len(b) != 4 || &b[0] != &a[0] {
		t.Fatal("a request below the high-water mark reallocated")
	}
	if allocs := testing.AllocsPerRun(100, func() { Grow(&buf, 10) }); allocs != 0 {
		t.Fatalf("Grow at the high-water mark allocated %.0f times", allocs)
	}
	if c := Grow(&buf, 100); len(c) != 100 || LiveBytes()-live0 != 800 {
		t.Fatalf("len %d, live grew %d bytes, want 100 and 800", len(c), LiveBytes()-live0)
	}
	var idx []int32
	Grow(&idx, 25)
	if LiveBytes()-live0 != 900 {
		t.Fatalf("live grew %d bytes after 25 int32s, want 900", LiveBytes()-live0)
	}
}

func TestMeasureSingleReturnsPositiveTimes(t *testing.T) {
	res := MeasureSingle(1 << 20)
	if res.Alloc <= 0 || res.Dealloc <= 0 {
		t.Fatalf("timings = %+v", res)
	}
}

func TestMeasureParallelReturnsPositiveTimes(t *testing.T) {
	res := MeasureParallel(1<<20, 4)
	if res.Alloc <= 0 || res.Dealloc <= 0 {
		t.Fatalf("timings = %+v", res)
	}
}

func TestMeasureParallelTinySize(t *testing.T) {
	// totalBytes smaller than worker count must not panic or allocate zero.
	res := MeasureParallel(2, 8)
	if res.Alloc <= 0 {
		t.Fatalf("timings = %+v", res)
	}
}
