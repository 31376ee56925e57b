// Package baseline holds the stand-ins the paper's figures draw next to its
// own kernels, and nothing a product should ever run on: the MKL and
// MKL-inspector substitutes (Go's map as the accumulator), the
// KokkosKernels kkmem substitute (two-level hash, dynamic schedule), the
// paper's own HashVector (a chunked table whose vector compare Go has no
// instruction for), plain Gustavson SPA, the one-phase hash ablation, and
// the four scheduling and memory-management variants of Heap SpGEMM that
// Figure 9 draws under the paper's final design. DESIGN.md's substitution
// table says why each reproduces its original's qualitative profile.
//
// The package is a leaf under internal/bench: the experiments, the root
// benchmarks and the ablation benchmarks call it; internal/spgemm, core,
// graph and the server cannot. It is written on the exported surface of
// sched, accum and matrix and reports through spgemm.ExecStats, and it
// leaves out the three things no figure uses — every multiply is float64
// plus-times, allocates its own state (no Context), and takes no mask.
package baseline

import (
	"fmt"
	"time"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/spgemm"
)

// Kind selects a baseline.
type Kind int

const (
	// SPA is Gustavson's algorithm with a dense sparse accumulator: O(Cols)
	// memory per worker, no collisions (the paper's Section 2 classic).
	// Two-phase, flop-balanced.
	SPA Kind = iota
	// MKL stands in for mkl_sparse_spmm: two-phase map accumulation with
	// plain static scheduling ("Any/Select").
	MKL
	// MKLInspector stands in for the MKL inspector-executor API: one-phase
	// map accumulation into growable per-worker buffers, guided
	// scheduling, unsorted by nature.
	MKLInspector
	// Kokkos stands in for KokkosKernels' kkmem: two-phase with a
	// cache-sized level-1 hash and a growable level-2 overflow, dynamic
	// scheduling, unsorted by nature ("Any/Unsorted").
	Kokkos
	// HashVec is the paper's HashVector SpGEMM (Section 4.2.2): Hash's
	// two-phase pipeline and flop-balanced schedule over a chunked table
	// probed a chunk at a time, the in-register compare of AVX2/AVX-512
	// emulated by a loop.
	HashVec
	// HashOnePhase is the alternative the paper's Section 2 contrasts with
	// its symbolic+numeric design: no symbolic pass, rows written to
	// flop-sized per-worker buffers and stitched.
	HashOnePhase
	// HeapStatic, HeapDynamic and HeapGuided are one-phase Heap SpGEMM
	// parallelized naively by row under the corresponding OpenMP-style
	// schedule; HeapBalancedSingle partitions rows by flop like the
	// production kernel but carves every worker's temp space out of one
	// shared allocation. Sorted inputs required, sorted output always. They
	// print as their Figure 9 curve labels.
	HeapStatic
	HeapDynamic
	HeapGuided
	HeapBalancedSingle
	// NumKinds is the number of baselines.
	NumKinds
)

var kindNames = [NumKinds]string{"spa", "mkl", "mkl-inspector", "kokkos", "hashvec", "hash-onephase",
	"static", "dynamic", "guided", "balanced single"}

// heapSchedules is the schedule of each Figure 9 kind, from HeapStatic on;
// sched.Balanced is what makes heapOnePhase carve one shared slab.
var heapSchedules = [...]sched.Schedule{sched.Static, sched.Dynamic, sched.Guided, sched.Balanced}

// String returns the name used in benchmark tables.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Options configures one baseline multiply. The zero value means GOMAXPROCS
// workers, sorted output, no stats.
type Options struct {
	// Workers is the number of parallel workers; 0 means GOMAXPROCS.
	Workers int
	// Unsorted requests unsorted output rows. MKLInspector and Kokkos are
	// unsorted by nature and honor a sorted request with a post-pass sort,
	// as a user of those libraries would have to.
	Unsorted bool
	// Stats, when non-nil, receives per-phase wall times and per-worker
	// counters (its Algorithm field is left alone: a baseline is not one).
	Stats *spgemm.ExecStats
}

// Multiply computes C = A·B over float64 plus-times with baseline k.
func Multiply(k Kind, a, b *matrix.CSR, opt *Options) (*matrix.CSR, error) {
	if opt == nil {
		opt = &Options{}
	}
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("baseline: dimension mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	switch k {
	case SPA:
		return twoPhase(a, b, opt, twoPhaseConfig{
			schedule: sched.Balanced,
			factory:  func(int64) rowAcc { return accum.NewSPA(b.Cols) },
		}), nil
	case MKL:
		return twoPhase(a, b, opt, twoPhaseConfig{
			schedule: sched.Static,
			factory:  func(int64) rowAcc { return newMapAcc() },
		}), nil
	case Kokkos:
		return twoPhase(a, b, opt, twoPhaseConfig{
			schedule:     sched.Dynamic,
			grain:        64,
			unsortedOnly: true,
			factory:      func(bound int64) rowAcc { return newTwoLevelHash(defaultL1Size, bound) },
		}), nil
	case HashVec:
		return twoPhase(a, b, opt, twoPhaseConfig{
			schedule: sched.Balanced,
			factory:  func(bound int64) rowAcc { return newHashVecTable(bound, chunkWidth) },
		}), nil
	case MKLInspector:
		return inspector(a, b, opt), nil
	case HashOnePhase:
		return hashOnePhase(a, b, opt), nil
	case HeapStatic, HeapDynamic, HeapGuided, HeapBalancedSingle:
		return heapOnePhase(a, b, opt, heapSchedules[k-HeapStatic])
	}
	return nil, fmt.Errorf("baseline: unknown kind %d", k)
}

func (o *Options) workersFor(rows int) int {
	workers := o.Workers
	if workers <= 0 {
		workers = sched.DefaultWorkers()
	}
	return max(1, min(workers, rows))
}

// phases stamps phase boundaries into an ExecStats; inert when st is nil.
type phases struct {
	st          *spgemm.ExecStats
	start, last time.Time
}

func startPhases(st *spgemm.ExecStats, workers int) phases {
	if st == nil {
		return phases{}
	}
	*st = spgemm.ExecStats{Algorithm: st.Algorithm, Workers: make([]spgemm.WorkerStats, workers)}
	now := time.Now()
	return phases{st: st, start: now, last: now}
}

// tick charges the time since the previous boundary to phase p; the last
// boundary closes the multiply, so Total is kept current.
func (t *phases) tick(p spgemm.Phase) {
	if t.st == nil {
		return
	}
	now := time.Now()
	t.st.Phases[p] += now.Sub(t.last)
	t.st.Total = now.Sub(t.start)
	t.last = now
}

// worker returns worker w's counter block, or nil with stats disabled.
func (t *phases) worker(w int) *spgemm.WorkerStats {
	if t.st == nil {
		return nil
	}
	return &t.st.Workers[w]
}

// timed returns body stamping each call's wall time into its worker's Busy,
// or body itself with stats disabled — the one place a baseline's parallel
// regions are timed. A worker handed several chunks sums them.
func (t *phases) timed(body func(w, lo, hi int)) func(w, lo, hi int) {
	st := t.st
	if st == nil {
		return body
	}
	return func(w, lo, hi int) {
		start := time.Now()
		body(w, lo, hi)
		st.Workers[w].Busy += time.Since(start)
	}
}

// flopSumMax returns the sum and the largest entry of flopRow over [lo, hi).
func flopSumMax(flopRow []int64, lo, hi int) (sum, max int64) {
	for _, f := range flopRow[lo:hi] {
		sum += f
		if f > max {
			max = f
		}
	}
	return sum, max
}

// outputShell allocates the column/value arrays of the result once the row
// pointer array is final.
func outputShell(rows, cols int, rowPtr []int64, sorted bool) *matrix.CSR {
	nnz := rowPtr[rows]
	return &matrix.CSR{
		Rows: rows, Cols: cols, RowPtr: rowPtr,
		ColIdx: make([]int32, nnz), Val: make([]float64, nnz),
		Sorted: sorted,
	}
}
