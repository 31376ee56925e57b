package server

import (
	"repro/internal/obs"
	"repro/internal/spgemm"
)

// Server metrics, registered in the default obs registry so they appear on
// the same /metrics endpoint as the kernel-level spgemm_*, sched_* and
// mempool_* families the debug surface already exposes.
var (
	mRequests = obs.NewCounterVec("server_requests_total",
		"HTTP requests handled, by route", "route")
	mErrors = obs.NewCounterVec("server_request_errors_total",
		"HTTP error responses, by status code", "code")
	mRejected = obs.NewCounter("server_rejected_total",
		"multiply requests rejected by admission control (429)")
	mInflight = obs.NewGauge("server_inflight_multiplies",
		"multiply requests currently holding a checked-out Context")
	mQueueDepth = obs.NewGauge("server_queue_depth",
		"multiply requests waiting for a Context")
	mMultiplies = obs.NewCounter("server_multiplies_total",
		"multiply requests completed successfully")
	mPhaseNanos = obs.NewCounterVec("server_multiply_phase_nanos_total",
		"cumulative per-phase kernel time across multiply requests, by phase", "phase")
	mMultiplyFlop = obs.NewCounter("server_multiply_flop_total",
		"cumulative multiply-accumulate operations across multiply requests")

	mPlanHits = obs.NewCounter("server_plan_cache_hits_total",
		"multiply requests served by a cached Plan (numeric phase only)")
	mPlanMisses = obs.NewCounter("server_plan_cache_misses_total",
		"multiply requests that had to run the inspector (Plan built or plain Multiply)")
	mPlanEvictions = obs.NewCounter("server_plan_cache_evictions_total",
		"Plans evicted from the cache (LRU capacity or matrix eviction)")
	mPlanEntries = obs.NewGauge("server_plan_cache_entries",
		"Plans currently cached")
	mPlanBytes = obs.NewGauge("server_plan_cache_bytes",
		"bytes the cached Plans retain: inspections plus replay maps at their built size")

	// Request-level families (PR 8). server_request_seconds splits latency
	// by the *resolved* algorithm (after AlgAuto dispatch), which is what
	// makes a per-kernel regression visible on a dashboard at all;
	// server_queue_wait_seconds splits the admission wait by outcome so
	// saturation (long "acquired" waits, growing "rejected") is
	// distinguishable from slow kernels.
	mRequestSeconds = obs.NewHistogramVec("server_request_seconds",
		"end-to-end multiply latency in seconds, by resolved algorithm", "alg",
		[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})
	mQueueWait = obs.NewHistogramVec("server_queue_wait_seconds",
		"context checkout wait in seconds, by outcome", "outcome",
		[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5})
	mSentryDegraded = obs.NewGauge("server_sentry_degraded",
		"1 while the perf sentry holds /healthz degraded, else 0")
	mSentryTransitions = obs.NewCounter("server_sentry_transitions_total",
		"perf sentry health transitions (ok->degraded and back)")

	mUploads = obs.NewCounter("server_matrix_uploads_total",
		"matrix upload requests accepted")
	mDedup = obs.NewCounter("server_matrix_dedup_total",
		"uploads interned to an already-stored identical matrix")
	mStoreBytes = obs.NewGauge("server_matrix_store_bytes",
		"approximate bytes of matrix payload currently interned")
	mStoreEntries = obs.NewGauge("server_matrix_store_entries",
		"matrices currently interned")
	mStoreEvictions = obs.NewCounter("server_matrix_store_evictions_total",
		"matrices evicted from the store (LRU byte budget)")
)

// requestSecondsByAlg caches the per-algorithm child of server_request_seconds
// so recording a request is one alloc-free Observe, never a locked map lookup
// — the same discipline as spgemm's multiplyCounter. Summed over alg it is
// the latency of every successful multiply.
var requestSecondsByAlg = func() [spgemm.NumAlgorithms]*obs.Histogram {
	var t [spgemm.NumAlgorithms]*obs.Histogram
	for a := spgemm.Algorithm(0); int(a) < len(t); a++ {
		t[a] = mRequestSeconds.With(a.String())
	}
	return t
}()

// Cached server_queue_wait_seconds children, one per admission outcome.
var (
	mQueueWaitAcquired = mQueueWait.With("acquired")
	mQueueWaitRejected = mQueueWait.With("rejected")
	mQueueWaitCanceled = mQueueWait.With("canceled")
)
