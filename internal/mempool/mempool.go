// Package mempool implements the memory-management schemes of the paper's
// Section 3.2.
//
// The paper finds that on KNL, deallocating one large shared allocation
// ("single") costs orders of magnitude more than letting each thread
// allocate and free its own share ("parallel"), and that SpGEMM should
// therefore size thread-private scratch up front and reuse it across rows.
// This package provides (a) per-worker reusable scratch buffers with
// ensure-capacity semantics — the allocate-once, reinitialize-per-row
// discipline of the Hash/Heap SpGEMM kernels — and (b) the single/parallel
// allocation round-trip measurements behind Figure 4.
package mempool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Scratch observability: growth happens only when a buffer's high-water mark
// rises, so these updates are off the per-row hot path by construction.
var (
	mGrow = obs.NewCounter("mempool_grow_events_total",
		"scratch buffer growth (re)allocations past the high-water mark")
	mLive = obs.NewGauge("mempool_live_bytes",
		"bytes currently held by per-worker scratch buffers")
)

// grew records one buffer growth from oldCap to n elements of elemSize bytes.
func grew(oldCap, n, elemSize int) {
	mGrow.Inc()
	mLive.Add(int64(n-oldCap) * int64(elemSize))
}

// LiveBytes returns the bytes currently held by per-worker scratch buffers
// process-wide — the mempool_live_bytes gauge. Bounded-memory smokes assert
// against it after an out-of-core run.
func LiveBytes() int64 { return mLive.Value() }

// Scratch is one worker's reusable scratch space. Slices only ever grow;
// reusing a Scratch across rows therefore performs no allocation after the
// high-water mark is reached — the paper's "allocate the table once per
// thread, reinitialize per row" discipline.
type Scratch struct {
	Int32A   []int32
	Int64A   []int64
	Float64  []float64
	Float64B []float64
}

// EnsureInt32A returns s.Int32A with length at least n (contents undefined).
func (s *Scratch) EnsureInt32A(n int) []int32 {
	if cap(s.Int32A) < n {
		grew(cap(s.Int32A), n, 4)
		s.Int32A = make([]int32, n)
	}
	s.Int32A = s.Int32A[:n]
	return s.Int32A
}

// EnsureInt64A returns s.Int64A with length at least n (contents undefined).
func (s *Scratch) EnsureInt64A(n int) []int64 {
	if cap(s.Int64A) < n {
		grew(cap(s.Int64A), n, 8)
		s.Int64A = make([]int64, n)
	}
	s.Int64A = s.Int64A[:n]
	return s.Int64A
}

// EnsureFloat64 returns s.Float64 with length at least n (contents undefined).
func (s *Scratch) EnsureFloat64(n int) []float64 {
	if cap(s.Float64) < n {
		grew(cap(s.Float64), n, 8)
		s.Float64 = make([]float64, n)
	}
	s.Float64 = s.Float64[:n]
	return s.Float64
}

// EnsureFloat64B returns s.Float64B with length at least n (contents
// undefined). A second float64 buffer for kernels that ping-pong between two
// (the merge SpGEMM rounds).
func (s *Scratch) EnsureFloat64B(n int) []float64 {
	if cap(s.Float64B) < n {
		grew(cap(s.Float64B), n, 8)
		s.Float64B = make([]float64, n)
	}
	s.Float64B = s.Float64B[:n]
	return s.Float64B
}

// Pool is a set of per-worker Scratch spaces. Worker w owns Get(w); no
// locking is needed because each worker only touches its own entry.
type Pool struct {
	scratch []Scratch
}

// NewPool returns a pool with one Scratch per worker.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = sched.DefaultWorkers()
	}
	return &Pool{scratch: make([]Scratch, workers)}
}

// Workers returns the number of per-worker slots.
func (p *Pool) Workers() int { return len(p.scratch) }

// Get returns worker w's scratch space.
func (p *Pool) Get(w int) *Scratch { return &p.scratch[w] }

// Ensure grows the pool to at least workers slots, preserving the existing
// Scratch spaces (and their high-water-mark buffers). A no-op when the pool
// is already large enough. Must not be called while workers are using the
// pool; spgemm.Context calls it between parallel regions.
func (p *Pool) Ensure(workers int) {
	if workers <= len(p.scratch) {
		return
	}
	grown := make([]Scratch, workers)
	copy(grown, p.scratch)
	p.scratch = grown
}

// ---------------------------------------------------------------------------
// Transient checkout: a process-wide Scratch free list.
// ---------------------------------------------------------------------------

// The per-worker Pool covers parallel regions, where worker w owns Get(w).
// Sequential driver code (graph-app post-passes, per-iteration compaction)
// also needs reusable temp buffers but has no worker index; it checks a
// Scratch out of this free list and returns it when done. Checkouts are
// expected to be coarse — per call or per iteration, never per row — so one
// mutex round trip each way is noise.
var (
	freeMu   sync.Mutex
	freeList []*Scratch

	mOutstanding = obs.NewGauge("mempool_acquired_scratch",
		"Scratch buffers checked out via Acquire and not yet Released")
)

// Acquire checks a Scratch out of the process-wide free list, allocating a
// fresh one when the list is empty. Every Acquire must be paired with exactly
// one Release on all control-flow paths, early returns and panics included —
// `defer mempool.Release(s)` directly after Acquire is the recommended form.
// The mempool_acquired_scratch gauge counts checkouts not yet returned; tests
// of code that acquires pin it across the call.
func Acquire() *Scratch {
	mOutstanding.Add(1)
	freeMu.Lock()
	if n := len(freeList); n > 0 {
		s := freeList[n-1]
		freeList = freeList[:n-1]
		freeMu.Unlock()
		return s
	}
	freeMu.Unlock()
	return &Scratch{}
}

// Release returns a Scratch obtained from Acquire to the free list. The
// caller must not use s afterwards. The buffers keep their high-water-mark
// capacity, so a steady-state Acquire/use/Release cycle allocates nothing.
func Release(s *Scratch) {
	if s == nil {
		return
	}
	mOutstanding.Add(-1)
	freeMu.Lock()
	freeList = append(freeList, s)
	freeMu.Unlock()
}

// ---------------------------------------------------------------------------
// Figure 4: single vs parallel allocation/deallocation round trips.
// ---------------------------------------------------------------------------

// AllocTiming reports the cost of one allocate–touch–release round trip.
// In Go "release" means dropping the last reference and forcing a collection,
// which is the closest observable analogue of delete/scalable_free.
type AllocTiming struct {
	Alloc   time.Duration // allocation + first touch
	Dealloc time.Duration // release + forced GC
}

// touchPageSize is the stride used for first-touch writes; 4KiB matches the
// default page size the paper's first-touch costs are governed by.
const touchPageSize = 4096

// MeasureSingle performs the paper's "single" scheme: one goroutine
// allocates totalBytes, touches every page, then releases the whole block.
func MeasureSingle(totalBytes int) AllocTiming {
	start := time.Now()
	buf := make([]byte, totalBytes)
	for i := 0; i < len(buf); i += touchPageSize {
		buf[i] = 1
	}
	alloc := time.Since(start)

	start = time.Now()
	sink(buf)
	buf = nil
	_ = buf
	runtime.GC()
	dealloc := time.Since(start)
	return AllocTiming{Alloc: alloc, Dealloc: dealloc}
}

// MeasureParallel performs the paper's "parallel" scheme of Figure 3: each
// of the workers allocates totalBytes/workers, touches its own pages, and
// releases its own share. The release phase still needs one GC cycle, but
// the allocation, touching and unlinking are all thread-local.
func MeasureParallel(totalBytes, workers int) AllocTiming {
	if workers <= 0 {
		workers = sched.DefaultWorkers()
	}
	each := totalBytes / workers
	if each < 1 {
		each = 1
	}
	bufs := make([][]byte, workers)

	start := time.Now()
	sched.RunWorkers(workers, func(w int) {
		b := make([]byte, each)
		for i := 0; i < len(b); i += touchPageSize {
			b[i] = 1
		}
		bufs[w] = b
	})
	alloc := time.Since(start)

	start = time.Now()
	sched.RunWorkers(workers, func(w int) {
		sink(bufs[w])
		bufs[w] = nil
	})
	runtime.GC()
	dealloc := time.Since(start)
	return AllocTiming{Alloc: alloc, Dealloc: dealloc}
}

// sinkByte defeats dead-store elimination of the touch loops. It is written
// concurrently by every worker of MeasureParallel, so the update is atomic.
var sinkByte atomic.Uint32

func sink(b []byte) {
	if len(b) > 0 {
		sinkByte.Add(uint32(b[0]))
	}
}
