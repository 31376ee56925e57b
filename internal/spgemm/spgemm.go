// Package spgemm implements the paper's primary contribution: optimized
// shared-memory sparse matrix-matrix multiplication (SpGEMM) kernels for
// highly-threaded processors. The stand-ins the paper's figures compare them
// against (MKL, KokkosKernels, plain SPA) live in internal/bench/baseline.
//
// All algorithms follow Gustavson's row-wise formulation (Figure 1 of the
// paper): output row i is the sum of rows b_k* of B scaled by the nonzeros
// a_ik of row a_i*. They differ in the accumulator that merges intermediate
// products — hash table, heap, or a dense SPA over B's columns — and in
// phase structure (one-phase with upper-bound allocation vs
// two-phase symbolic+numeric).
//
// Shared architecture-specific machinery (Section 4.1 and 3.2 of the paper):
// rows are partitioned over workers by per-row flop counts via prefix sum and
// binary search (sched.BalancedPartition), and every worker allocates its
// accumulator once at its own upper bound and reinitializes it per row
// (mempool discipline).
package spgemm

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// Algorithm selects the SpGEMM implementation.
type Algorithm int

const (
	// AlgAuto picks an algorithm with the paper's Table 4 recipe.
	AlgAuto Algorithm = iota
	// AlgHash is the paper's optimized hash-table SpGEMM (Section 4.2.1):
	// two-phase, thread-private linear-probing tables sized to the per-
	// thread flop upper bound, balanced scheduling. Accepts any input
	// order; emits sorted or unsorted output ("Any/Select"). The only
	// kernel that fuses an output mask (MaskedRowSums).
	AlgHash
	// AlgHeap is the optimized heap SpGEMM (Section 4.2.3): one-phase,
	// k-way merge with a thread-private binary heap, thread-private
	// upper-bound output buffers. Requires sorted inputs and always emits
	// sorted output ("Sorted/Sorted").
	AlgHeap

	// NumAlgorithms is the number of defined Algorithm values — the size of
	// any per-algorithm lookup table (algNames below, the server's cached
	// histogram children, the package's own cached counters).
	NumAlgorithms = int(AlgHeap) + 1

	// Deprecated: use AlgHash, which this name runs.
	AlgTiled = AlgHash
	// Deprecated: use AlgHash, which cuts its own budget stripes and lands
	// them in Options.ShardSink.
	AlgSharded = AlgHash
	// Deprecated: use AlgHash. The chunked table of the paper's HashVector
	// (Section 4.2.2) is the figure baseline baseline.HashVec.
	AlgHashVec = AlgHash
)

// algNames is the one name table: String, ParseAlgorithm, the CLIs' -alg
// help and the server's error for an unknown name all read it.
var algNames = [NumAlgorithms]string{"auto", "hash", "heap"}

// String returns the name used in benchmark tables.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= NumAlgorithms {
		return "unknown"
	}
	return algNames[a]
}

// ParseAlgorithm is the inverse of Algorithm.String: it resolves the names
// the CLIs and the multiply server accept ("auto", "hash", "heap").
// The empty string parses as AlgAuto.
func ParseAlgorithm(name string) (Algorithm, bool) {
	if name == "" {
		return AlgAuto, true
	}
	for alg, n := range algNames {
		if n == name {
			return Algorithm(alg), true
		}
	}
	return AlgAuto, false
}

// OptionsG configures MultiplyRing over value type V. The zero value means:
// auto algorithm, GOMAXPROCS workers, sorted output. The semiring is the ring
// argument of MultiplyRing rather than a field, so each instantiation
// compiles its Add/Mul directly into the kernels' inner loops.
type OptionsG[V semiring.Value] struct {
	Algorithm Algorithm
	// Workers is the number of parallel workers; 0 means GOMAXPROCS.
	Workers int
	// Unsorted requests unsorted output rows where the algorithm supports
	// the choice (see SupportsUnsorted). Skipping the per-row sort is the
	// significant optimization of the paper's Section 5.4.4.
	Unsorted bool
	// UseCase tells the AlgAuto recipe which Table 4 scenario this product
	// is (squaring-like, square × tall-skinny, or triangular L×U). The zero
	// value is UseSquare. Ignored unless Algorithm is AlgAuto.
	UseCase UseCase
	// Stats, when non-nil, receives per-phase wall times and per-worker
	// counters for the call (previous contents are overwritten). A nil
	// Stats costs a few pointer compares and nothing else — no clock reads,
	// no allocations.
	Stats *ExecStats
	// Context, when non-nil, carries reusable execution state (per-worker
	// accumulators, scratch buffers, per-row bookkeeping) across Multiply
	// calls; iterative callers reach a steady state where only the output
	// matrix is allocated (and Context.Recycle takes a finished product back
	// to build the next one in). nil preserves one-shot behavior. A Context
	// must be over the same V as the inputs and must not be shared by
	// concurrent Multiply calls.
	Context *ContextG[V]
	// ShardMemBudget is the resident-bytes target one stripe's output
	// upper bound is sized against: a two-phase product (Hash or a Plan)
	// cuts at least enough stripes that each fits it, at least one per
	// worker and at most one per row (at W > 1 its claimed cut may be
	// finer). 0 means a 256 MiB default.
	ShardMemBudget int64
	// ShardSink overrides where a two-phase product lands finished stripes.
	// nil means the output itself; a SpillSink bounds peak resident output
	// memory for out-of-core products, and its sorted output is
	// bit-identical to the in-place one. AlgAuto with a sink resolves to
	// AlgHash; Heap, one-phase, rejects one. A sink serves a single
	// Multiply call.
	ShardSink *SpillSink[V]
}

// Options configures the float64 Multiply entry point: OptionsG over
// float64, field for field.
type Options = OptionsG[float64]

// workersFor resolves the worker count of a product with the given number
// of output rows: Workers (GOMAXPROCS when unset), at most one per row, at
// least one. Every kernel and NewPlan size their parallel regions with it.
func (o *OptionsG[V]) workersFor(rows int) int {
	workers := o.Workers
	if workers <= 0 {
		workers = sched.DefaultWorkers()
	}
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Multiply computes C = A·B with the selected algorithm. A and B must agree
// on the inner dimension. The returned matrix has compacted rows; its Sorted
// flag reflects the actual ordering produced.
func Multiply(a, b *matrix.CSR, opt *Options) (*matrix.CSR, error) {
	return MultiplyRing(semiring.PlusTimesF64{}, a, b, opt)
}

// MultiplyRing computes C = A·B over the given semiring ring. The kernels
// are generic over (V, ring); Go's shape stenciling means the ring's Add/Mul
// reach the inner loops as runtime-dictionary calls, so the three plus-times
// rings (float64, float32, int64) get row bodies in Go's own * and +
// (ringfast.go), selected once per window by one type switch. Other rings
// run the dictionary path — identical algorithm, two indirect calls per
// product.
func MultiplyRing[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	if opt == nil {
		opt = &OptionsG[V]{}
	}
	alg, err := opt.kernelFor(a, b)
	if err != nil {
		return nil, err
	}
	c, err := inspectExecute(ring, alg, a, b, opt)
	if err != nil {
		return nil, err
	}
	recordMultiply(alg, opt)
	return c, nil
}

// MaskedRowSums returns, for each row i, the left fold with ring.Add, from
// ring.Zero(), of row i of (A·B).*M in ascending column order, M being mask
// (only its pattern counts). It is the one masked kernel: Hash's (AlgAuto
// resolves to it) run on the one-phase geometry, each row bounded by its
// mask row (maskedRow) and folded away, so no product is ever stored and
// through a reused opt.Context the returned slice is all a call allocates.
func MaskedRowSums[V semiring.Value, R semiring.Ring[V]](ring R, a, b, mask *matrix.CSRG[V], opt *OptionsG[V]) ([]V, error) {
	if opt == nil {
		opt = &OptionsG[V]{}
	}
	switch {
	case a.Cols != b.Rows:
		return nil, fmt.Errorf("spgemm: dimension mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	case mask == nil:
		return nil, fmt.Errorf("spgemm: MaskedRowSums needs a mask")
	case opt.Algorithm != AlgAuto && opt.Algorithm != AlgHash:
		return nil, fmt.Errorf("spgemm: mask is only supported by hash, not %v", opt.Algorithm)
	case mask.Rows != a.Rows || mask.Cols != b.Cols:
		return nil, fmt.Errorf("spgemm: mask dimensions %dx%d do not match output %dx%d", mask.Rows, mask.Cols, a.Rows, b.Cols)
	case opt.ShardSink != nil:
		return nil, fmt.Errorf("spgemm: MaskedRowSums stores no product for a ShardSink to take")
	}
	ctx := opt.ctx()
	in, pt := inspect(AlgHash, a, b, mask, opt, ctx, false)
	sums := make([]V, a.Rows)
	onePhaseExecute(ring, a, b, ctx, in, nil, sums, pt)
	recordMultiply(AlgHash, opt)
	return sums, nil
}

// kernelFor checks that a·b is a product some kernel can compute under o and
// names that kernel — Algorithm itself, or the recipe's answer for AlgAuto:
// a sink needs a two-phase product. MultiplyRing and NewPlan both start
// here, so a product has a Plan exactly when it has a one-shot result.
func (o *OptionsG[V]) kernelFor(a, b *matrix.CSRG[V]) (Algorithm, error) {
	if a.Cols != b.Rows {
		return 0, fmt.Errorf("spgemm: dimension mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	alg := o.Algorithm
	if alg == AlgAuto {
		// The Table 4 recipe knows nothing of sinks and may answer Heap; of
		// the kernels it can return, only Hash lands its stripes in a sink.
		if o.ShardSink != nil {
			alg = AlgHash
		} else {
			alg = Recommend(a, b, !o.Unsorted, o.UseCase)
		}
	}
	if alg <= AlgAuto || int(alg) >= NumAlgorithms {
		return 0, fmt.Errorf("spgemm: unknown algorithm %d", alg)
	}
	if RequiresSortedInput(alg) && !b.Sorted {
		return 0, fmt.Errorf("spgemm: %v algorithm requires sorted input rows (B is unsorted)", alg)
	}
	if o.ShardSink != nil && alg == AlgHeap {
		return 0, fmt.Errorf("spgemm: a ShardSink needs a two-phase product; heap is one-phase")
	}
	return alg, nil
}

// recordMultiply stamps the per-call metrics after a successful kernel run.
func recordMultiply[V semiring.Value](alg Algorithm, opt *OptionsG[V]) {
	multiplyCounter[alg].Inc()
	if opt.Stats != nil {
		if cf := opt.Stats.CollisionFactor(); cf > 0 {
			mCollision.Observe(cf)
		}
	}
}

// SupportsUnsorted reports whether the algorithm can skip output sorting
// (the paper's Table 1 "Sortedness" column). Heap merges sorted streams and
// can only emit sorted rows.
func SupportsUnsorted(a Algorithm) bool {
	return a == AlgHash
}

// RequiresSortedInput reports whether the algorithm needs sorted input rows
// (Heap operates on sorted streams).
func RequiresSortedInput(a Algorithm) bool { return a == AlgHeap }
