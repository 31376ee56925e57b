package mempool

import (
	"testing"
)

func TestScratchEnsureGrowsAndReuses(t *testing.T) {
	var s Scratch
	a := s.EnsureInt32A(10)
	if len(a) != 10 {
		t.Fatalf("len = %d", len(a))
	}
	a[5] = 42
	// Shrinking request must not reallocate.
	b := s.EnsureInt32A(4)
	if len(b) != 4 {
		t.Fatalf("len = %d", len(b))
	}
	if &b[0] != &a[0] {
		t.Fatal("shrink reallocated")
	}
	// Growing request reallocates.
	c := s.EnsureInt32A(100)
	if len(c) != 100 {
		t.Fatalf("len = %d", len(c))
	}
}

func TestScratchAllBuffers(t *testing.T) {
	var s Scratch
	if len(s.EnsureInt32A(7)) != 7 {
		t.Fatal("Int32A")
	}
	if len(s.EnsureInt64A(8)) != 8 {
		t.Fatal("Int64A")
	}
	if len(s.EnsureFloat64(9)) != 9 {
		t.Fatal("Float64")
	}
	// Buffers are independent.
	s.EnsureInt32A(3)[0] = 1
	s.EnsureInt64A(3)[0] = 2
	if int64(s.Int32A[0]) == s.Int64A[0] {
		t.Fatal("buffers alias")
	}
}

func TestPoolPerWorkerIsolation(t *testing.T) {
	p := NewPool(4)
	if p.Workers() != 4 {
		t.Fatalf("Workers = %d", p.Workers())
	}
	p.Get(0).EnsureFloat64(5)[0] = 1.5
	p.Get(1).EnsureFloat64(5)[0] = 2.5
	if p.Get(0).Float64[0] != 1.5 || p.Get(1).Float64[0] != 2.5 {
		t.Fatal("worker scratch not isolated")
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	p := NewPool(0)
	if p.Workers() < 1 {
		t.Fatalf("Workers = %d", p.Workers())
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

func TestScratchEnsureFloat64B(t *testing.T) {
	var s Scratch
	b1 := s.EnsureFloat64B(100)
	if len(b1) != 100 {
		t.Fatalf("len = %d", len(b1))
	}
	b1[99] = 7
	b2 := s.EnsureFloat64B(50)
	if len(b2) != 50 || cap(b2) < 100 {
		t.Fatalf("shrink reallocated: len=%d cap=%d", len(b2), cap(b2))
	}
	// Independent of the primary float64 buffer.
	f := s.EnsureFloat64(10)
	if &f[0] == &b2[0] {
		t.Fatal("Float64 and Float64B alias")
	}
}

func TestPoolEnsureGrowsPreservingScratch(t *testing.T) {
	p := NewPool(2)
	p.Get(1).EnsureInt32A(64)[0] = 42
	p.Ensure(5)
	if p.Workers() != 5 {
		t.Fatalf("Workers = %d, want 5", p.Workers())
	}
	if got := p.Get(1).Int32A; len(got) != 64 || got[0] != 42 {
		t.Fatalf("scratch not preserved across Ensure: len=%d", len(got))
	}
	p.Ensure(3) // shrink request is a no-op
	if p.Workers() != 5 {
		t.Fatalf("Workers shrank to %d", p.Workers())
	}
}

func TestAcquireReleaseRecyclesScratch(t *testing.T) {
	// Drain anything other tests parked so the identity check below is
	// deterministic for this test's own buffers.
	var drained []*Scratch
	for i := 0; i < 64; i++ {
		drained = append(drained, Acquire())
	}
	s := drained[len(drained)-1]
	s.EnsureInt64A(1 << 10)[0] = 11
	Release(s)
	got := Acquire()
	if got != s {
		t.Fatal("Acquire did not pop the most recently released Scratch")
	}
	if cap(got.Int64A) < 1<<10 {
		t.Fatalf("high-water capacity lost: cap=%d", cap(got.Int64A))
	}
	Release(got)
	for _, d := range drained[:len(drained)-1] {
		Release(d)
	}
	// Release(nil) must be a safe no-op (deferred releases on error paths).
	Release(nil)
}
