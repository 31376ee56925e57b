package spgemm

import (
	"fmt"
	"strings"
	"time"
)

// Phase identifies one stage of a SpGEMM kernel. Not every algorithm has
// every phase: one-phase algorithms have no symbolic pass, and algorithms
// that write rows directly into the exactly-sized output have no assemble
// pass. Phases an algorithm does not execute stay at zero.
type Phase int

const (
	// PhasePartition is the pre-pass: per-row flop counting, the
	// flop-balanced row partition (Figure 6).
	PhasePartition Phase = iota
	// PhaseSymbolic is the symbolic pass of two-phase algorithms: computing
	// per-row output sizes without touching values (Figure 7, left half).
	PhaseSymbolic
	// PhaseAlloc covers the row-pointer prefix sum and the allocation of
	// the output (and, for one-phase algorithms, upper-bound temp buffers).
	PhaseAlloc
	// PhaseNumeric is the numeric pass: the actual multiply-accumulate work
	// including per-row extraction/sorting.
	PhaseNumeric
	// PhaseAssemble is the final stitching of per-worker temp buffers into
	// the output matrix (one-phase algorithms and spill sinks).
	PhaseAssemble
	// NumPhases is the number of phases; ExecStats.Phases has this length.
	NumPhases
)

// String returns the phase name used in breakdown tables.
func (p Phase) String() string {
	switch p {
	case PhasePartition:
		return "partition"
	case PhaseSymbolic:
		return "symbolic"
	case PhaseAlloc:
		return "alloc"
	case PhaseNumeric:
		return "numeric"
	case PhaseAssemble:
		return "assemble"
	}
	return "unknown"
}

// WorkerStats holds one worker's counters for a single Multiply call.
// Counters an algorithm's accumulator does not maintain stay at zero.
type WorkerStats struct {
	// Rows is the number of output rows this worker produced.
	Rows int64
	// Flop is the multiply-accumulate count over this worker's rows.
	Flop int64
	// HashLookups counts insert/accumulate operations into a hash-family
	// accumulator (each corresponds to one intermediate product or one
	// symbolic insert). Products the whole-row hash kernel handles without
	// its table are counted by StampMarks, DirectFlop and DenseFlop instead
	// — where Cols <= flop it has no table at all: for an unmasked AlgHash,
	// HashLookups + StampMarks + DirectFlop + DenseFlop == 2·Flop minus the
	// flop of the rows symbolic sized by their bound, min(flop, Cols) ≤ 1,
	// without counting them (two-phase products only: the one-pass route
	// writes every product once, DirectFlop + DenseFlop == Flop). A Plan's
	// streamed replay touches no accumulator at all: there ReplayFlop == Flop
	// and the four are zero.
	HashLookups int64
	// HashProbes counts collision probe steps beyond the first slot/chunk;
	// HashProbes/HashLookups is the mean collision factor of the paper's
	// Equation (2).
	HashProbes int64
	// HeapPushes counts cursor pushes into the merge heap (Heap SpGEMM).
	HeapPushes int64
	// L2Overflows counts the keys the Kokkos-style figure baseline
	// delegates to the level-2 table of its two-level accumulator; no kernel
	// of this package sets it.
	L2Overflows int64
	// StampMarks counts symbolic products tested against generation stamps
	// rather than inserted into a hash table (one-pass: before the verdict).
	StampMarks int64
	// DirectFlop counts numeric products written into the output without an
	// accumulator: concatenated, in rows symbolic proved free of repeated
	// columns, or folded into a row's single entry.
	DirectFlop int64
	// DenseFlop counts numeric products folded into the worker's dense
	// accumulator (SPA) instead of a hash table: the rows concatenation does
	// not write, where B's columns are no more than the worker's flop.
	DenseFlop int64
	// ReplayFlop counts numeric products a Plan streamed through its replay
	// map (plan.go) instead of running its kernel.
	ReplayFlop int64
	// Busy is the worker's wall time inside the call's parallel regions:
	// max/mean Busy is the balance Figure 6's partition keeps near 1.
	Busy time.Duration
}

func (w *WorkerStats) add(o WorkerStats) {
	w.Rows += o.Rows
	w.Flop += o.Flop
	w.HashLookups += o.HashLookups
	w.HashProbes += o.HashProbes
	w.HeapPushes += o.HeapPushes
	w.L2Overflows += o.L2Overflows
	w.StampMarks += o.StampMarks
	w.DirectFlop += o.DirectFlop
	w.DenseFlop += o.DenseFlop
	w.ReplayFlop += o.ReplayFlop
	w.Busy += o.Busy
}

// ExecStats collects per-phase wall times and per-worker counters for one
// Multiply call. Point Options.Stats at a zero ExecStats to enable
// collection; a nil Options.Stats costs a handful of pointer compares per
// call and performs no clock reads and no allocations.
//
// Workers write only their own Workers[w] entry and the driver joins them
// with the synchronization already inherent in the fork/join worker pool, so
// collection is race-free (verified under `go test -race`).
type ExecStats struct {
	// Algorithm is the concrete algorithm that ran (after AlgAuto
	// resolution).
	Algorithm Algorithm
	// Phases holds wall time per phase, indexed by Phase.
	Phases [NumPhases]time.Duration
	// Total is the wall time of the whole kernel. The per-phase times are
	// measured back-to-back, so Phases sums to Total up to clock
	// granularity.
	Total time.Duration
	// Workers holds one entry per worker that ran.
	Workers []WorkerStats
	// Stripes holds a two-phase product's per-stripe breakdown (Hash or a
	// Plan's kernel execution), in ascending row order; empty
	// for one-phase products (Heap, a mask, the one-pass route) and a
	// Plan's streamed replay. Unlike the other fields it is per-call
	// detail: Add does not accumulate stripes across calls.
	Stripes []StripeStats
}

// StripeStats describes one stripe of a two-phase multiply.
type StripeStats struct {
	// Lo, Hi is the stripe's output row range [Lo, Hi).
	Lo, Hi int
	// Flop is the stripe's multiply-accumulate count.
	Flop int64
	// Nnz is the stripe's output entry count.
	Nnz int64
	// Spilled reports whether the stripe was committed to an out-of-core
	// sink.
	Spilled bool
}

// reset prepares the stats for a new run with the given worker count,
// reusing the Workers slice when possible.
func (s *ExecStats) reset(workers int) {
	s.Phases = [NumPhases]time.Duration{}
	s.Total = 0
	if cap(s.Workers) < workers {
		s.Workers = make([]WorkerStats, workers)
	}
	s.Workers = s.Workers[:workers]
	clear(s.Workers)
	s.Stripes = s.Stripes[:0]
}

// PhaseSum returns the sum of the per-phase times. The accounting invariant
// every kernel maintains is PhaseSum() <= Total: phase times are measured
// back-to-back inside the window finish() stamps as Total.
// TestExecStatsPhaseSumInvariant enforces this across all algorithms.
func (s *ExecStats) PhaseSum() time.Duration {
	var t time.Duration
	for _, d := range s.Phases {
		t += d
	}
	return t
}

// PhaseSpan is one executed phase as an interval relative to the kernel
// start: the request-trace form of ExecStats.Phases. Phases that did not run
// (zero duration) are omitted.
type PhaseSpan struct {
	Phase  Phase
	Offset time.Duration // from kernel start
	Dur    time.Duration
}

// PhaseSpans lays the per-phase durations back-to-back from the kernel start
// and returns them as intervals. Phase times are measured back-to-back by
// phaseTimer inside the window Total stamps (see PhaseSum), so the
// reconstruction is exact up to clock granularity: span k starts where span
// k-1 ended, and the last span ends at PhaseSum() <= Total. The server
// appends these intervals, offset by the kernel's start within the request,
// to the request's timeline.
func (s *ExecStats) PhaseSpans() []PhaseSpan {
	out := make([]PhaseSpan, 0, NumPhases)
	var off time.Duration
	for p := Phase(0); p < NumPhases; p++ {
		d := s.Phases[p]
		if d == 0 {
			continue
		}
		out = append(out, PhaseSpan{Phase: p, Offset: off, Dur: d})
		off += d
	}
	return out
}

// Add folds another call's stats into s: phase times, Total and per-worker
// counters all accumulate (Workers grows to the larger worker count), and
// Algorithm takes o's value. Iterative workloads use this — via the automatic
// accumulation on spgemm.Context — to report aggregate phase breakdowns
// across a whole expansion loop rather than just the last call.
func (s *ExecStats) Add(o *ExecStats) {
	if o == nil {
		return
	}
	s.Algorithm = o.Algorithm
	for p := Phase(0); p < NumPhases; p++ {
		s.Phases[p] += o.Phases[p]
	}
	s.Total += o.Total
	if n := len(o.Workers) - len(s.Workers); n > 0 {
		s.Workers = append(s.Workers, make([]WorkerStats, n)...)
	}
	for i := range o.Workers {
		s.Workers[i].add(o.Workers[i])
	}
}

// Clone returns a deep copy of s.
func (s *ExecStats) Clone() *ExecStats {
	out := *s
	out.Workers = append([]WorkerStats(nil), s.Workers...)
	out.Stripes = append([]StripeStats(nil), s.Stripes...)
	return &out
}

// TotalWorker returns all worker counters summed.
func (s *ExecStats) TotalWorker() WorkerStats {
	var t WorkerStats
	for i := range s.Workers {
		t.add(s.Workers[i])
	}
	return t
}

// CollisionFactor returns mean hash probes per lookup plus one — the paper's
// collision factor c (Equation 2). Returns 0 when no hash lookups were
// recorded.
func (s *ExecStats) CollisionFactor() float64 {
	t := s.TotalWorker()
	if t.HashLookups == 0 {
		return 0
	}
	return 1 + float64(t.HashProbes)/float64(t.HashLookups)
}

// String renders a compact one-call breakdown: phase times with percentages
// and the aggregate counters.
func (s *ExecStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s total=%v", s.Algorithm, s.Total)
	for p := Phase(0); p < NumPhases; p++ {
		d := s.Phases[p]
		if d == 0 {
			continue
		}
		pct := 0.0
		if s.Total > 0 {
			pct = 100 * float64(d) / float64(s.Total)
		}
		fmt.Fprintf(&b, " %s=%v(%.0f%%)", p, d, pct)
	}
	t := s.TotalWorker()
	fmt.Fprintf(&b, " workers=%d rows=%d flop=%d", len(s.Workers), t.Rows, t.Flop)
	if t.HashLookups > 0 {
		fmt.Fprintf(&b, " lookups=%d probes=%d cf=%.2f", t.HashLookups, t.HashProbes, s.CollisionFactor())
	}
	if t.HeapPushes > 0 {
		fmt.Fprintf(&b, " heap_pushes=%d", t.HeapPushes)
	}
	if t.L2Overflows > 0 {
		fmt.Fprintf(&b, " l2_overflows=%d", t.L2Overflows)
	}
	if t.StampMarks > 0 || t.DirectFlop > 0 || t.DenseFlop > 0 {
		fmt.Fprintf(&b, " stamp_marks=%d direct_flop=%d dense_flop=%d", t.StampMarks, t.DirectFlop, t.DenseFlop)
	}
	if t.ReplayFlop > 0 {
		fmt.Fprintf(&b, " replay_flop=%d", t.ReplayFlop)
	}
	if t.Busy > 0 {
		var hi time.Duration
		for i := range s.Workers {
			hi = max(hi, s.Workers[i].Busy)
		}
		mean := t.Busy / time.Duration(len(s.Workers))
		fmt.Fprintf(&b, " busy max/mean=%v/%v=%.2f", hi, mean, float64(hi)/float64(mean))
	}
	if n := len(s.Stripes); n > 0 {
		spilled := 0
		for i := range s.Stripes {
			if s.Stripes[i].Spilled {
				spilled++
			}
		}
		fmt.Fprintf(&b, " stripes=%d", n)
		if spilled > 0 {
			fmt.Fprintf(&b, " spilled=%d", spilled)
		}
	}
	return b.String()
}

// phaseTimer stamps phase boundaries into an ExecStats. The zero value (from
// a nil *ExecStats) is inert: tick and finish return without reading the
// clock, so disabled stats cost a couple of nil compares per kernel call.
type phaseTimer struct {
	st    *ExecStats
	start time.Time
	last  time.Time
}

// startPhases resets st for a run of alg on workers workers and starts the
// clock; a nil st yields the inert timer.
func startPhases(st *ExecStats, alg Algorithm, workers int) phaseTimer {
	if st == nil {
		return phaseTimer{}
	}
	st.reset(workers)
	st.Algorithm = alg
	now := time.Now()
	return phaseTimer{st: st, start: now, last: now}
}

// tick charges the time since the previous boundary to phase p.
func (t *phaseTimer) tick(p Phase) {
	if t.st == nil {
		return
	}
	now := time.Now()
	t.st.Phases[p] += now.Sub(t.last)
	t.last = now
}

// finish records the total wall time.
func (t *phaseTimer) finish() {
	if t.st == nil {
		return
	}
	t.st.Total = time.Since(t.start)
}

// worker returns the pointer to worker w's counter block, or nil when stats
// are disabled. Kernels hold the pointer for the duration of a parallel
// region and write through it once at the end of the region.
func (t *phaseTimer) worker(w int) *WorkerStats {
	if t.st == nil || w >= len(t.st.Workers) {
		return nil
	}
	return &t.st.Workers[w]
}

// rangeFlop sums flopRow over [lo, hi) — the per-worker Flop counter for
// contiguous partitions.
func rangeFlop(flopRow []int64, lo, hi int) int64 {
	sum, _ := rangeFlopMax(flopRow, lo, hi)
	return sum
}
