package accum

import "repro/internal/semiring"

// SPAG is Gilbert/Moler/Schreiber's sparse accumulator: a dense value array
// indexed directly by column, a dense occupancy mark, and a list of occupied
// columns. Lookup and insert are a single random access — O(1) with no
// collisions ever — at the cost of O(n) space per thread, which is the
// trade-off the paper's Section 4.2.3 cites against hash and heap.
//
// Occupancy is a StampSet, so a per-row reset is O(1): bumping the
// generation invalidates all marks at once. Only the index list is walked
// during extraction.
type SPAG[V semiring.Value] struct {
	vals  []V
	marks StampSet
	idx   []int32 // occupied columns in insertion order
	rank  ranker  // sorted-extraction scratch (rank.go)
}

// SPA is the float64 instantiation.
type SPA = SPAG[float64]

// NewSPA returns a float64 SPA over a column space of size ncols.
func NewSPA(ncols int) *SPA { return NewSPAG[float64](ncols) }

// NewSPAG returns a SPA over V with a column space of size ncols.
func NewSPAG[V semiring.Value](ncols int) *SPAG[V] {
	return &SPAG[V]{
		vals:  make([]V, ncols),
		marks: StampSet{stamp: make([]uint32, ncols), gen: 1},
		idx:   make([]int32, 0, 256),
	}
}

// Reserve grows the dense arrays to cover ncols columns (no-op if already
// large enough).
func (s *SPAG[V]) Reserve(ncols int) {
	if len(s.vals) < ncols {
		s.vals = make([]V, ncols)
		s.marks.Reserve(ncols)
	}
}

// Reset prepares for a new row in O(1) (amortized: a full stamp clear every
// 2^32 rows when the generation counter wraps).
//
//spgemm:hotpath
func (s *SPAG[V]) Reset() {
	s.idx = s.idx[:0]
	s.marks.Clear()
}

// Len returns the number of distinct columns accumulated this row.
func (s *SPAG[V]) Len() int { return len(s.idx) }

// InsertSymbolic marks col occupied, reporting whether it was new.
//
//spgemm:hotpath
func (s *SPAG[V]) InsertSymbolic(col int32) bool {
	if !s.marks.Mark(col) {
		return false
	}
	s.idx = append(s.idx, col)
	return true
}

// Upsert returns a pointer to col's value slot and whether the column is new
// this row (fresh slots hold stale contents; the caller stores the first
// product).
//
//spgemm:hotpath
func (s *SPAG[V]) Upsert(col int32) (*V, bool) {
	if !s.marks.Mark(col) {
		return &s.vals[col], false
	}
	s.idx = append(s.idx, col)
	return &s.vals[col], true
}

// Lookup returns the value for col and whether it is occupied this row.
//
//spgemm:hotpath
func (s *SPAG[V]) Lookup(col int32) (V, bool) {
	if s.marks.Has(col) {
		return s.vals[col], true
	}
	var zero V
	return zero, false
}

// ExtractUnsorted writes the (col, value) pairs in insertion order.
//
//spgemm:hotpath
func (s *SPAG[V]) ExtractUnsorted(cols []int32, vals []V) int {
	idx := s.idx
	n := len(idx)
	// Reslicing the destinations to n drops the per-entry bounds checks on
	// cols/vals; s.vals[c] stays checked (c is a caller-supplied column id
	// with no compile-time bound) and is budgeted by the BCE gate.
	cols = cols[:n]
	vals = vals[:n]
	for i, c := range idx {
		cols[i] = c
		vals[i] = s.vals[c]
	}
	return n
}

// ExtractSorted writes the pairs in increasing column order.
//
//spgemm:hotpath
func (s *SPAG[V]) ExtractSorted(cols []int32, vals []V) int {
	n := len(s.idx)
	cols = cols[:n]
	vals = vals[:n]
	copy(cols, s.idx)
	s.rank.sortKeys(cols)
	for i, col := range cols {
		vals[i] = s.vals[col]
	}
	return n
}

// ExtractUnsortedBias is ExtractUnsorted with bias added to every emitted
// column id — the tile-local → global column translation of the tiled
// kernel's stitch pass, fused into the extraction so no temp copy exists.
//
//spgemm:hotpath
func (s *SPAG[V]) ExtractUnsortedBias(cols []int32, vals []V, bias int32) int {
	idx := s.idx
	n := len(idx)
	cols = cols[:n]
	vals = vals[:n]
	for i, c := range idx {
		cols[i] = c + bias
		vals[i] = s.vals[c]
	}
	return n
}

// ExtractSortedBias is ExtractSorted with bias added to every emitted column
// id. Because a tile covers a contiguous column range, sorting the local ids
// and biasing afterwards yields globally sorted output for the tile's slice
// of the row.
//
//spgemm:hotpath
func (s *SPAG[V]) ExtractSortedBias(cols []int32, vals []V, bias int32) int {
	n := len(s.idx)
	cols = cols[:n]
	vals = vals[:n]
	copy(cols, s.idx)
	s.rank.sortKeys(cols)
	for i, col := range cols {
		vals[i] = s.vals[col]
		cols[i] = col + bias
	}
	return n
}
