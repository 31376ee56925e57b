package accum

import "repro/internal/semiring"

// MergeHeapG is the accumulator of Heap SpGEMM (Section 4.2.3): a binary
// min-heap keyed by column index that k-way-merges the nnz(a_i*) scaled rows
// of B contributing to output row i. Space is O(nnz(a_i*)) — the heap holds
// one cursor per contributing row of B — which is the heap algorithm's
// advantage over hash (O(flop)) and SPA (O(n)) accumulators.
type MergeHeapG[V semiring.Value] struct {
	// Parallel arrays beat a slice of structs here: the sift loops touch
	// Col for every comparison but AVal/Pos/End only on swap.
	col  []int32
	aval []V
	pos  []int64
	end  []int64
	// pushes counts cursor pushes across the heap's lifetime (one per
	// non-empty contributing row of B), feeding the per-worker HeapPushes
	// counter of the ExecStats instrumentation.
	pushes int64
	// Pads the struct to 128 bytes, a size class whose objects never share a
	// cache line: two workers' heaps allocated back to back at 104 bytes did,
	// and every push and pop of one then stalled the other (1.5-3x at W=2).
	_ [24]byte
}

// MergeHeap is the float64 instantiation.
type MergeHeap = MergeHeapG[float64]

// NewMergeHeap returns a float64 heap with initial capacity for bound cursors.
func NewMergeHeap(bound int64) *MergeHeap { return NewMergeHeapG[float64](bound) }

// NewMergeHeapG returns a heap over V with initial capacity for bound cursors.
func NewMergeHeapG[V semiring.Value](bound int64) *MergeHeapG[V] {
	return &MergeHeapG[V]{
		col:  make([]int32, 0, bound),
		aval: make([]V, 0, bound),
		pos:  make([]int64, 0, bound),
		end:  make([]int64, 0, bound),
	}
}

// Len returns the number of live cursors.
func (h *MergeHeapG[V]) Len() int { return len(h.col) }

// Reset empties the heap, keeping capacity.
//
//spgemm:hotpath
func (h *MergeHeapG[V]) Reset() {
	h.col = h.col[:0]
	h.aval = h.aval[:0]
	h.pos = h.pos[:0]
	h.end = h.end[:0]
}

// Pushes returns the cumulative number of Push calls.
//
//spgemm:hotpath
func (h *MergeHeapG[V]) Pushes() int64 { return h.pushes }

// Push adds a cursor: the merge source currently at column col with scale
// aval, reading B storage positions [pos, end).
func (h *MergeHeapG[V]) Push(col int32, aval V, pos, end int64) {
	h.pushes++
	h.col = append(h.col, col)
	h.aval = append(h.aval, aval)
	h.pos = append(h.pos, pos)
	h.end = append(h.end, end)
	h.siftUp(len(h.col) - 1)
}

// Min returns the minimum column and its cursor's fields. The heap must be
// non-empty.
//
//spgemm:hotpath
func (h *MergeHeapG[V]) Min() (col int32, aval V, pos int64) {
	return h.col[0], h.aval[0], h.pos[0]
}

// AdvanceMin moves the minimum cursor to its next B entry (column nextCol)
// and restores the heap. The caller has consumed the entry at the previous
// position.
//
//spgemm:hotpath
func (h *MergeHeapG[V]) AdvanceMin(nextCol int32) {
	h.col[0] = nextCol
	h.pos[0]++
	h.siftDown(0)
}

// MinPosEnd returns the minimum cursor's position and end, letting the
// driver decide between AdvanceMin and PopMin.
//
//spgemm:hotpath
func (h *MergeHeapG[V]) MinPosEnd() (pos, end int64) { return h.pos[0], h.end[0] }

// PopMin removes the minimum cursor (its B row is exhausted).
//
//spgemm:hotpath
func (h *MergeHeapG[V]) PopMin() {
	last := len(h.col) - 1
	h.swap(0, last)
	h.col = h.col[:last]
	h.aval = h.aval[:last]
	h.pos = h.pos[:last]
	h.end = h.end[:last]
	if last > 0 {
		h.siftDown(0)
	}
}

//spgemm:hotpath
func (h *MergeHeapG[V]) swap(i, j int) {
	h.col[i], h.col[j] = h.col[j], h.col[i]
	h.aval[i], h.aval[j] = h.aval[j], h.aval[i]
	h.pos[i], h.pos[j] = h.pos[j], h.pos[i]
	h.end[i], h.end[j] = h.end[j], h.end[i]
}

//spgemm:hotpath
func (h *MergeHeapG[V]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.col[parent] <= h.col[i] {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

//spgemm:hotpath
func (h *MergeHeapG[V]) siftDown(i int) {
	n := len(h.col)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && h.col[r] < h.col[l] {
			small = r
		}
		if h.col[i] <= h.col[small] {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// CheckInvariant verifies the heap property; used by tests.
func (h *MergeHeapG[V]) CheckInvariant() bool {
	n := len(h.col)
	for i := 1; i < n; i++ {
		if h.col[(i-1)/2] > h.col[i] {
			return false
		}
	}
	return true
}

// ResetCounters zeroes the cumulative push counter without touching the
// heap's capacity. spgemm.Context calls it when reusing a cached heap so
// per-call ExecStats keep the semantics of a fresh heap.
func (h *MergeHeapG[V]) ResetCounters() { h.pushes = 0 }
