package spgemm

import "repro/internal/obs"

// Kernel observability: coarse per-call counters on the package metrics
// registry. Everything here costs a few atomic adds per Multiply call (or per
// plan build/execute), never per-row work; series are registered once at init
// and the per-algorithm children are cached in an array so the hot path does
// no map lookups.
var (
	mMultiplies = obs.NewCounterVec("spgemm_multiplies_total",
		"successful Multiply calls by resolved algorithm", "alg")
	mFlop = obs.NewCounter("spgemm_flop_total",
		"multiply-accumulate operations counted by the partition pre-pass or the one-column pass")
	mCollision = obs.NewHistogram("spgemm_collision_factor",
		"hash collision factor per stats-enabled Multiply call (Equation 2)",
		[]float64{1, 1.1, 1.25, 1.5, 2, 3, 5})

	mCtxReuse = obs.NewCounter("spgemm_context_acc_reuse_total",
		"per-worker accumulators revived from a Context instead of allocated")
	mCtxAlloc = obs.NewCounter("spgemm_context_acc_alloc_total",
		"per-worker accumulators freshly allocated")

	mPlanBuilds = obs.NewCounter("spgemm_plan_builds_total",
		"symbolic plans built by NewPlan")
	mPlanExecs = obs.NewCounter("spgemm_plan_executes_total",
		"successful Plan.ExecuteIn calls (symbolic phase skipped)")
	mPlanStale = obs.NewCounter("spgemm_plan_stale_total",
		"Plan.ExecuteIn calls rejected with ErrPlanStale")
	mReplayMaps = obs.NewCounter("spgemm_plan_replay_maps_total",
		"replay maps built and published by a Plan's second execution")
	mReplayMapBytes = obs.NewCounter("spgemm_plan_replay_map_bytes_total",
		"bytes of replay maps built (4 per product + 4 per output entry)")

	mOutputReused = obs.NewCounter("spgemm_output_reused_total",
		"output arrays (row pointers, columns, values) drawn from a product donated through Context.Recycle")
	mOutputAllocated = obs.NewCounter("spgemm_output_allocated_total",
		"output arrays freshly allocated")
	mOutputReusedBytes = obs.NewCounter("spgemm_output_reused_bytes_total",
		"bytes of output arrays drawn from a donated product")
	mOutputAllocatedBytes = obs.NewCounter("spgemm_output_allocated_bytes_total",
		"bytes of output arrays freshly allocated")
)

// multiplyCounter caches the per-algorithm child of spgemm_multiplies_total
// so recording a call is a single atomic add.
var multiplyCounter = func() [NumAlgorithms]*obs.Counter {
	var t [NumAlgorithms]*obs.Counter
	for a, name := range algNames {
		t[a] = mMultiplies.With(name)
	}
	return t
}()
