package accum

// StampSet is a set over a dense column space [0, n) with an O(1) clear: a
// column is a member when its stamp equals the current generation, so
// bumping the generation empties the set. It is the occupancy half of the
// sparse accumulator (SPAG embeds one) and, on its own, the symbolic counter
// of the hash kernels — or the one-pass hash row's repeat test — when the
// column space is no larger than the flop it serves: one random access per
// product, no collisions, no per-row reset walk.
//
// Stamps are 32 bits wide on purpose. A byte would quarter the footprint,
// but its wrap clear is O(n) every 255 rows, which loses on inputs with many
// short rows; at 32 bits the clear runs once per 2^32 rows.
type StampSet struct {
	stamp []uint32
	gen   uint32
}

// NewStampSet returns an empty set over [0, n).
func NewStampSet(n int) *StampSet {
	return &StampSet{stamp: make([]uint32, n), gen: 1}
}

// Reserve grows the column space to at least n, emptying the set (no-op if
// already large enough).
func (s *StampSet) Reserve(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.gen = 1
	}
}

// Clear empties the set in O(1) (amortized: a full stamp clear every 2^32
// calls, when the generation counter wraps).
//
//spgemm:hotpath
func (s *StampSet) Clear() {
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps would match again; zero them
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
}

// Mark adds col and reports whether it was absent.
//
//spgemm:hotpath
func (s *StampSet) Mark(col int32) bool {
	if s.stamp[col] == s.gen {
		return false
	}
	s.stamp[col] = s.gen
	return true
}

// Has reports whether col is a member.
//
//spgemm:hotpath
func (s *StampSet) Has(col int32) bool { return s.stamp[col] == s.gen }

// CountNew adds every column of cols and returns how many were absent — the
// symbolic phase's whole inner loop over one row of B.
//
//spgemm:hotpath
func (s *StampSet) CountNew(cols []int32) int {
	stamp, gen := s.stamp, s.gen
	n := 0
	for _, col := range cols {
		if stamp[col] != gen {
			n++
		}
		stamp[col] = gen
	}
	return n
}

// CopyNew adds the columns of cols in order, copying each into dst, up to the
// first that is already a member, and returns how many it added: len(cols)
// when none was. It is the one-pass hash row's inner loop over one row of B,
// kept out of line: inlined there, the loop reloaded the caller's spilled
// slices on every product and the row ran about 5 % slower (ER s15 ef8).
//
//spgemm:hotpath
//go:noinline
func (s *StampSet) CopyNew(dst, cols []int32) int {
	stamp, gen := s.stamp, s.gen
	dst = dst[:len(cols)]
	for y, col := range cols {
		if stamp[col] == gen {
			return y
		}
		stamp[col] = gen
		dst[y] = col
	}
	return len(cols)
}
