package sched

// This file implements the persistent worker pool behind every parallel
// region in the repository. The paper's Section 3.2/4.1 lesson is that on
// many-core hardware the fixed costs around the numeric work — thread
// spawn/join, memory management — dominate SpGEMM unless they are amortized.
// OpenMP amortizes thread startup for free (its runtime parks a thread team
// between parallel regions); naive goroutine fan-out does not. A Pool gives
// the Go port the same property: goroutines are spawned once and parked on a
// channel, and each parallel region costs two channel operations per worker
// instead of a goroutine spawn + exit.

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool observability: coarse per-region counters, never per-iteration.
var (
	mRegions = obs.NewCounter("sched_pool_regions_total",
		"parallel regions executed by worker pools")
	mParkedRuns = obs.NewCounter("sched_pool_parked_runs_total",
		"region bodies picked up by parked pool goroutines")
	mSpawnFallbacks = obs.NewCounter("sched_pool_spawn_fallbacks_total",
		"region bodies that fell back to a fresh goroutine because every parked worker was busy")
)

// poolTask is one worker invocation dispatched to a parked goroutine.
type poolTask struct {
	w    int
	body func(worker int)
	wg   *sync.WaitGroup
}

// Pool is a set of parked goroutines that execute parallel regions. It is
// safe for concurrent use: regions submitted from multiple goroutines share
// the parked workers, and submissions that find every worker busy fall back
// to spawning (never block, never deadlock — even for nested regions).
//
// Every parallel region of the repository runs on the lazily-created
// process-wide default Pool (Default); the free RunWorkers, ParallelFor,
// PrefixSum and BalancedPartitionInto all dispatch to it. NewPool builds an
// isolated team with a bounded lifetime (Close) for a caller that measures
// the pool itself, like the repo benchmark's fork/join probe.
type Pool struct {
	work chan poolTask
	quit chan struct{}
	size int
	once sync.Once // guards Close
}

// NewPool starts a pool of size parked goroutines (0 means DefaultWorkers).
// The goroutines live until Close is called.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = DefaultWorkers()
	}
	p := &Pool{
		work: make(chan poolTask),
		quit: make(chan struct{}),
		size: size,
	}
	for i := 0; i < size; i++ {
		go p.park()
	}
	return p
}

// park is the parked worker loop: wait for a task, run it, signal, repeat.
func (p *Pool) park() {
	for {
		select {
		case t := <-p.work:
			t.body(t.w)
			t.wg.Done()
		case <-p.quit:
			return
		}
	}
}

// Size returns the number of parked goroutines.
func (p *Pool) Size() int { return p.size }

// Close releases the pool's goroutines. Idempotent. Regions already running
// complete; submitting new regions after Close still works but degrades to
// spawning goroutines (the pre-pool behavior).
func (p *Pool) Close() {
	p.once.Do(func() { close(p.quit) })
}

// RunWorkers starts exactly `workers` invocations of body(worker) and waits
// for all of them. Worker 0 runs inline on the calling goroutine; the rest
// are handed to parked pool goroutines (or spawned when none is idle — e.g.
// when workers exceeds the pool size or regions overlap).
func (p *Pool) RunWorkers(workers int, body func(worker int)) {
	if workers <= 0 {
		workers = p.size
	}
	mRegions.Inc()
	if workers == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		t := poolTask{w: w, body: body, wg: &wg}
		select {
		case p.work <- t:
			// A parked worker picked it up.
			mParkedRuns.Inc()
		default:
			// All parked workers busy: degrade to a plain spawn rather
			// than queueing, so independent regions never serialize and
			// nested regions cannot deadlock.
			mSpawnFallbacks.Inc()
			go func(t poolTask) {
				t.body(t.w)
				t.wg.Done()
			}(t)
		}
	}
	body(0)
	wg.Wait()
}

// ParallelFor runs body(worker, lo, hi) over the half-open range [0, n) split
// according to the schedule, using the given number of workers (0 means
// DefaultWorkers). grain is the minimum chunk size for Dynamic and Guided
// (0 means 1). It returns only when every iteration has run.
//
// body may be called concurrently from different goroutines with disjoint
// [lo, hi) ranges; worker identifies the calling worker in [0, workers) so
// bodies can use per-worker scratch space.
//
// The iterations run on the process-wide default Pool: goroutines are parked
// between regions rather than spawned per call.
func ParallelFor(workers, n int, s Schedule, grain int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		body(0, 0, n)
		return
	}
	if grain < 1 {
		grain = 1
	}
	switch s {
	case Static, Balanced:
		// Contiguous blocks, sized within ±1 iteration of each other.
		RunWorkers(workers, func(w int) {
			lo := w * n / workers
			hi := (w + 1) * n / workers
			if lo < hi {
				body(w, lo, hi)
			}
		})
	case Dynamic:
		var next int64
		RunWorkers(workers, func(w int) {
			for {
				lo := int(atomic.AddInt64(&next, int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(w, lo, hi)
			}
		})
	case Guided:
		var next int64
		RunWorkers(workers, func(w int) {
			for {
				// Chunk size proportional to remaining work: the classic
				// guided heuristic remaining/(2P), floored at the grain.
				// Computed optimistically; the CAS-free fetch-add keeps it
				// cheap and any overshoot is clamped.
				cur := atomic.LoadInt64(&next)
				if cur >= int64(n) {
					return
				}
				chunk := (int64(n) - cur) / int64(2*workers)
				if chunk < int64(grain) {
					chunk = int64(grain)
				}
				lo := atomic.AddInt64(&next, chunk) - chunk
				if lo >= int64(n) {
					return
				}
				hi := lo + chunk
				if hi > int64(n) {
					hi = int64(n)
				}
				body(w, int(lo), int(hi))
			}
		})
	default:
		panic("sched: unknown schedule")
	}
}

// defaultPool is the process-wide pool behind every free function of the
// package, created on first use with DefaultWorkers goroutines.
var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// Default returns the lazily-created process-wide pool.
func Default() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(DefaultWorkers()) })
	return defaultPool
}
