package accum

import (
	"math/bits"

	"repro/internal/semiring"
)

// SPAG is Gilbert/Moler/Schreiber's sparse accumulator: a dense value array
// indexed directly by column, a dense occupancy mark, and a list of occupied
// columns. Lookup and insert are a single random access — O(1) with no
// collisions ever — at the cost of O(n) space per thread, which is the
// trade-off the paper's Section 4.2.3 cites against hash and heap.
//
// Occupancy is a StampSet, so a per-row reset is O(1): bumping the
// generation invalidates all marks at once. Only the index list is walked
// during extraction. A row can instead keep its occupancy in a bitmap, one
// bit per column (Bitmap): no stamps and no list, and the extraction walks
// the bitmap in column order.
//
// Identity invariant: from the first Bitmap call on, a value slot outside
// the current row holds V's bit-exact additive identity, -0 for float64 (-0 +
// x is x for every x, where +0 + -0 is +0) and the zero value otherwise. The
// arrays are allocated zeroed, which a stamped row never reads (it stores a
// column's first product); the first Bitmap call after an allocation fills
// every slot with the identity, and every extraction — Gather, ExtractSorted,
// ExtractUnsorted, ExtractBitmap — empties each slot it reads back to it, so
// a Bitmap row may fold its first product onto the slot with no first-touch
// test, whatever ring the previous row was folded with. Lookup after an
// extraction reads the identity. A row that is Reset without an extraction
// leaves its slots as they were, and no Bitmap row may follow it.
type SPAG[V semiring.Value] struct {
	vals   []V
	empty  V    // the identity every slot outside the current row holds
	filled bool // vals holds empty outside the current row (Bitmap)
	marks  StampSet
	idx    []int32 // occupied columns in insertion order
	rank   ranker  // sorted-extraction scratch (rank.go), a Bitmap row's too
}

// SPA is the float64 instantiation.
type SPA = SPAG[float64]

// NewSPA returns a float64 SPA over a column space of size ncols.
func NewSPA(ncols int) *SPA { return NewSPAG[float64](ncols) }

// NewSPAG returns a SPA over V with a column space of size ncols, at least 64
// columns wide: the dense arrays are written on every product, and two
// workers' one-column SPAs (a tall-skinny product's) would otherwise share a
// cache line and pass it back and forth — MSBFS's numeric pass ran 1.6×
// slower at W = 2 for it (EXPERIMENTS.md).
func NewSPAG[V semiring.Value](ncols int) *SPAG[V] {
	ncols = max(ncols, 64)
	return &SPAG[V]{
		vals:  make([]V, ncols),
		empty: identity[V](),
		marks: StampSet{stamp: make([]uint32, ncols), gen: 1},
		idx:   make([]int32, 0, 256),
	}
}

// Reserve grows the dense arrays to cover ncols columns (no-op if already
// large enough).
func (s *SPAG[V]) Reserve(ncols int) {
	if len(s.vals) < ncols {
		s.vals, s.filled = make([]V, ncols), false
		s.marks.Reserve(ncols)
	}
}

// identity is V's bit-exact additive identity: -0 for float64 (a zero
// variable negated; a constant -0 is +0), the zero value for the rest.
func identity[V semiring.Value]() V {
	var z V
	if p, ok := any(&z).(*float64); ok {
		*p = -*p
	}
	return z
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
	dense, empty := s.vals, s.empty
	for i, c := range idx {
		cols[i] = c
		vals[i] = dense[c]
		dense[c] = empty
	}
	return n
}

// ExtractSorted writes the pairs in increasing column order.
//
//spgemm:hotpath
func (s *SPAG[V]) ExtractSorted(cols []int32, vals []V) int {
	n := copy(cols[:len(s.idx)], s.idx)
	s.Gather(cols[:n], vals, true)
	return n
}

// Row starts a row holding the entries cols/vals — none for a fresh row, or
// the distinct columns a caller wrote before it turned to the SPA — for a
// loop of the caller's own over the raw dense arrays: column col is in the
// row iff stamp[col] == gen. On a column's first touch the loop sets its
// stamp, stores the product at dense[col] and lists the column itself; later
// products it folds into dense[col] with its ring. Gather then extracts.
// Unlike Upsert, nothing is appended per product and no field is reloaded
// after each store: the hash kernels' numeric row runs about 5 % faster on
// it (EXPERIMENTS.md). dense and stamp have the same length.
//
//spgemm:hotpath
func (s *SPAG[V]) Row(cols []int32, vals []V) (dense []V, stamp []uint32, gen uint32) {
	s.Reset()
	dense, stamp, gen = s.vals, s.marks.stamp[:len(s.vals)], s.marks.gen
	vals = vals[:len(cols)]
	for j, col := range cols {
		stamp[col], dense[col] = gen, vals[j]
	}
	return dense, stamp, gen
}

// Marks is the SPA's occupancy, for a caller that tests columns against it
// (StampSet.CopyNew) before it folds any: a Row or a Reset clears it.
func (s *SPAG[V]) Marks() *StampSet { return &s.marks }

// Gather writes the value of every column of cols to vals, after sorting
// cols ascending when sorted, and empties its slot: the extraction of a row
// whose columns a Row loop listed, each once.
//
//spgemm:hotpath
func (s *SPAG[V]) Gather(cols []int32, vals []V, sorted bool) {
	if sorted {
		s.rank.sortKeys(cols)
	}
	vals = vals[:len(cols)]
	dense, empty := s.vals, s.empty
	for i, col := range cols {
		vals[i] = dense[col]
		dense[col] = empty
	}
}

// Bitmap starts a row over columns [0, ncols) for a loop of the caller's own
// that neither stamps nor lists a column: each product sets bit col&63 of
// occ[col>>6] and folds into dense[col], whose slot holds the identity until
// the row's first product lands on it (the invariant above), so a ring whose
// Add has that identity needs no first-touch test. ExtractBitmap(occ, …) then
// extracts; it walks every word of occ, so the row pays off where it has at
// least one entry per word. occ is the sorted extraction's bitmap scratch,
// all-zero between rows: grown on a worker's first row that needs it wider,
// then reused.
//
//spgemm:hotpath
func (s *SPAG[V]) Bitmap(ncols int) (dense []V, occ []uint64) {
	words := (ncols + 63) >> 6
	if len(s.rank.words) < words || !s.filled {
		s.ready(words)
	}
	return s.vals, s.rank.words[:words]
}

// ready readies Bitmap's cold state: the bitmap scratch, grown to words, and
// the value slots, filled with the identity once per allocation. Out of
// line, so the allocations and the fill stay out of the row bodies.
//
//go:noinline
func (s *SPAG[V]) ready(words int) {
	if len(s.rank.words) < words {
		s.rank.grow(words)
	}
	if !s.filled {
		for i := range s.vals {
			s.vals[i] = s.empty
		}
		s.filled = true
	}
}

// ExtractBitmap writes the entries of a Bitmap row, occ being its bitmap, to
// cols and vals in increasing column order — the bitmap's own — emptying each
// slot and clearing each word on the way, and returns how many there were.
//
//spgemm:hotpath
func (s *SPAG[V]) ExtractBitmap(occ []uint64, cols []int32, vals []V) int {
	dense, empty := s.vals, s.empty
	vals = vals[:len(cols)]
	n := 0
	for w, x := range occ {
		if x == 0 {
			continue
		}
		occ[w] = 0
		for ; x != 0; x &= x - 1 {
			col := w<<6 | bits.TrailingZeros64(x)
			cols[n], vals[n] = int32(col), dense[col]
			dense[col] = empty
			n++
		}
	}
	return n
}
