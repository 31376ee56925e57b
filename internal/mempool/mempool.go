// Package mempool implements the memory-management schemes of the paper's
// Section 3.2.
//
// The paper finds that on KNL, deallocating one large shared allocation
// ("single") costs orders of magnitude more than letting each thread
// allocate and free its own share ("parallel"), and that SpGEMM should
// therefore size thread-private scratch up front and reuse it across rows.
// This package provides (a) Grow, an ensure-capacity step for a reusable
// scratch buffer whose growth LiveBytes counts (spgemm.Context grows the
// replay map's rank array through it), and (b) the single/parallel
// allocation round-trip measurements behind Figure 4.
package mempool

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Scratch observability: growth happens only when a buffer's high-water mark
// rises, so these updates are off the per-row hot path by construction.
var (
	mGrow = obs.NewCounter("mempool_grow_events_total",
		"scratch buffer growth (re)allocations past the high-water mark")
	mLive = obs.NewGauge("mempool_live_bytes",
		"bytes currently held by reusable scratch buffers")
)

// LiveBytes returns the bytes currently held by reusable scratch buffers
// process-wide — the mempool_live_bytes gauge, which the benchmark reports
// as mempool.live_mb.
func LiveBytes() int64 { return mLive.Value() }

// Grow returns *buf with length n (contents undefined). The buffer only ever
// grows: past its high-water mark it is reallocated and the growth counted
// in LiveBytes, below it the same array is resliced, so reusing it performs
// no allocation — the paper's "allocate once per thread, reinitialize per
// row" discipline.
func Grow[T any](buf *[]T, n int) []T {
	if c := cap(*buf); c < n {
		var zero T
		mGrow.Inc()
		mLive.Add(int64(n-c) * int64(unsafe.Sizeof(zero)))
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
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
