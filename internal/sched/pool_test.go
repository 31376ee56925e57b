package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunWorkersCoversAllIDs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, workers := range []int{1, 2, 4, 9} { // 9 > pool size: overflow spawn path
		var mu sync.Mutex
		seen := map[int]bool{}
		p.RunWorkers(workers, func(w int) {
			mu.Lock()
			seen[w] = true
			mu.Unlock()
		})
		if len(seen) != workers {
			t.Fatalf("workers=%d: saw %d ids", workers, len(seen))
		}
		for w := 0; w < workers; w++ {
			if !seen[w] {
				t.Fatalf("workers=%d: id %d never ran", workers, w)
			}
		}
	}
}

func TestPoolRunWorkersDefaultSize(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var n int32
	p.RunWorkers(0, func(w int) { atomic.AddInt32(&n, 1) })
	if n != 3 {
		t.Fatalf("ran %d workers, want pool size 3", n)
	}
	if p.Size() != 3 {
		t.Fatalf("Size() = %d", p.Size())
	}
}

func TestPoolParallelForCoversEveryIndexExactlyOnce(t *testing.T) {
	// ParallelFor runs on the default pool; 8 workers exceed it on any host
	// with fewer cores, so the overflow spawn path is covered too.
	for _, s := range []Schedule{Static, Dynamic, Guided, Balanced} {
		for _, workers := range []int{1, 2, 3, 8} {
			for _, n := range []int{1, 7, 100, 1023} {
				hits := make([]int32, n)
				ParallelFor(workers, n, s, 4, func(w, lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("%v workers=%d n=%d: index %d visited %d times", s, workers, n, i, h)
					}
				}
			}
		}
	}
}

func TestPoolReuseAcrossManyRegions(t *testing.T) {
	// The point of the pool: many consecutive regions on the same parked
	// goroutines. A correctness-only check that region k sees the writes of
	// region k-1 (the channel handoff must establish happens-before).
	p := NewPool(4)
	defer p.Close()
	buf := make([]int64, 256)
	for round := 0; round < 100; round++ {
		p.RunWorkers(4, func(w int) {
			for i := w; i < len(buf); i += 4 {
				buf[i]++
			}
		})
	}
	for i, v := range buf {
		if v != 100 {
			t.Fatalf("buf[%d] = %d, want 100", i, v)
		}
	}
}

func TestPoolNestedRegionsDoNotDeadlock(t *testing.T) {
	// A body that itself opens a parallel region must not deadlock even
	// though every parked worker is busy: the inner region overflows to
	// plain goroutine spawns.
	p := NewPool(2)
	defer p.Close()
	var n int32
	p.RunWorkers(2, func(w int) {
		p.RunWorkers(2, func(inner int) {
			atomic.AddInt32(&n, 1)
		})
	})
	if n != 4 {
		t.Fatalf("inner bodies ran %d times, want 4", n)
	}
}

func TestPoolConcurrentRegions(t *testing.T) {
	// Distinct goroutines submitting regions to the default pool
	// concurrently.
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ParallelFor(4, 1000, Dynamic, 16, func(w, lo, hi int) {
				atomic.AddInt64(&total, int64(hi-lo))
			})
		}()
	}
	wg.Wait()
	if total != 8*1000 {
		t.Fatalf("total = %d, want 8000", total)
	}
}

func TestPoolCloseIsIdempotentAndPoolStillWorks(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
	// After Close, regions still complete via the spawn fallback.
	var n int32
	p.RunWorkers(3, func(w int) { atomic.AddInt32(&n, 1) })
	if n != 3 {
		t.Fatalf("ran %d workers after Close, want 3", n)
	}
}

func TestDefaultPoolIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() returned distinct pools")
	}
}

func TestBalancedPartitionIntoReusesBuffers(t *testing.T) {
	w := []int64{5, 1, 1, 1, 5, 1, 1, 1}
	offsets := make([]int, 0, 16)
	ps := make([]int64, 0, 16)
	got := BalancedPartitionInto(w, 4, 1, offsets, ps)
	want := BalancedPartition(w, 4, 1)
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("offsets differ at %d: %v vs %v", i, got, want)
		}
	}
	if &got[0] != &offsets[:1][0] {
		t.Fatal("offsets buffer not reused despite sufficient capacity")
	}
	// Stale contents must not leak into a smaller follow-up partition.
	got2 := BalancedPartitionInto([]int64{1, 1}, 2, 1, got, ps)
	if got2[0] != 0 || got2[2] != 2 {
		t.Fatalf("reused-buffer partition wrong: %v", got2)
	}
}
