// Package core is the entry point to the paper's primary contribution — the
// optimized shared-memory SpGEMM kernels. It is a thin facade over
// internal/spgemm (where the implementations live, one file per algorithm
// family) so that callers who just want "multiply two sparse matrices well"
// have a single small surface:
//
//	c, err := core.Multiply(a, b, &core.Options{Algorithm: core.AlgAuto})
//
// See internal/spgemm for algorithm documentation and DESIGN.md for how each
// algorithm maps onto the paper.
package core

import (
	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// Re-exported types.
type (
	// Options configures a multiplication; the zero value is a good default.
	Options = spgemm.Options
	// Algorithm selects the SpGEMM implementation.
	Algorithm = spgemm.Algorithm
	// UseCase classifies the multiplication scenario for the recipe.
	UseCase = spgemm.UseCase
	// ExecStats receives per-phase wall times and per-worker counters when
	// pointed to by Options.Stats.
	ExecStats = spgemm.ExecStats
	// WorkerStats is one worker's counter block inside ExecStats.
	WorkerStats = spgemm.WorkerStats
	// Phase indexes ExecStats.Phases.
	Phase = spgemm.Phase
	// Context carries reusable execution state (worker pool, accumulators,
	// scratch) across Multiply calls; see spgemm.Context.
	Context = spgemm.Context
	// Plan caches the symbolic phase of a product for repeated numeric
	// re-execution; see spgemm.Plan.
	Plan = spgemm.Plan
)

// Generic surface: multiply over any value type and semiring ring. These are
// aliases of the spgemm generics, so core.Multiply above is exactly
// core.MultiplyRing with the plus-times float64 ring.
type (
	// CSR is the generic CSR matrix over value type V.
	CSR[V semiring.Value] = matrix.CSRG[V]
	// OptionsG configures MultiplyRing over value type V.
	OptionsG[V semiring.Value] = spgemm.OptionsG[V]
	// ContextG is the reusable execution context over value type V.
	ContextG[V semiring.Value] = spgemm.ContextG[V]
	// Ring is the inlinable semiring contract; see semiring.Ring.
	Ring[V semiring.Value] = semiring.Ring[V]
)

// ErrPlanStale is returned by Plan.Execute when the input structure changed.
var ErrPlanStale = spgemm.ErrPlanStale

// Re-exported algorithm selectors.
const (
	AlgAuto    = spgemm.AlgAuto
	AlgHash    = spgemm.AlgHash
	AlgHashVec = spgemm.AlgHashVec
	AlgHeap    = spgemm.AlgHeap
	AlgSharded = spgemm.AlgSharded
)

// NewSpillSink returns a temp-file-backed shard sink that bounds resident
// output memory during an AlgSharded multiply. See spgemm.NewSpillSink.
func NewSpillSink[V semiring.Value](dir string, budget int64) *spgemm.SpillSink[V] {
	return spgemm.NewSpillSink[V](dir, budget)
}

// Re-exported use cases.
const (
	UseSquare     = spgemm.UseSquare
	UseTallSkinny = spgemm.UseTallSkinny
	UseTriangle   = spgemm.UseTriangle
)

// Multiply computes C = A·B. See spgemm.Multiply.
func Multiply(a, b *matrix.CSR, opt *Options) (*matrix.CSR, error) {
	return spgemm.Multiply(a, b, opt)
}

// MultiplyRing computes C = A·B over an arbitrary value type and semiring.
// Each value type gets its own kernel instantiation (the three float64 rings
// share one), which calls the ring's Add and Mul once per product through
// its dictionary; only float64 plus-times has hand-inlined hash loops. See
// spgemm.MultiplyRing.
func MultiplyRing[V semiring.Value, R Ring[V]](ring R, a, b *CSR[V], opt *OptionsG[V]) (*CSR[V], error) {
	return spgemm.MultiplyRing(ring, a, b, opt)
}

// NewContextG returns an empty reusable execution context for value type V.
func NewContextG[V semiring.Value]() *ContextG[V] {
	return spgemm.NewContextG[V]()
}

// NewContext returns an empty reusable execution context. Point
// Options.Context at it and call Multiply in a loop; see spgemm.NewContext.
func NewContext() *Context {
	return spgemm.NewContext()
}

// NewPlan runs the inspector (partition + symbolic) once for C = A·B and
// returns a Plan whose Execute replays only the numeric phase while the input
// structures are unchanged. See spgemm.NewPlan.
func NewPlan(a, b *matrix.CSR, opt *Options) (*Plan, error) {
	return spgemm.NewPlan(a, b, opt)
}

// Recommend returns the paper's Table 4 recipe choice. See spgemm.Recommend.
func Recommend(a, b *matrix.CSR, sorted bool, uc UseCase) Algorithm {
	return spgemm.Recommend(a, b, sorted, uc)
}

// Flop returns the multiplication count of A·B and its per-row breakdown.
func Flop(a, b *matrix.CSR) (total int64, perRow []int64) {
	return spgemm.Flop(a, b)
}
