package accum

import (
	"sync/atomic"

	"repro/internal/semiring"
)

// TwoLevelHashG models KokkosKernels' kkmem accumulator: a small fixed-size
// first-level hash table sized to fit in cache, with a growable second-level
// table absorbing the overflow. Probing in level 1 is bounded; once a probe
// sequence exceeds the bound the key is delegated to level 2.
//
// Key claims in level 1 go through atomic compare-and-swap, mirroring
// kkmem's thread-team execution model in which several lanes may insert into
// a shared table concurrently. The paper makes exactly this point about its
// own Hash SpGEMM: "Hash SpGEMM on GPU requires some form of mutual
// exclusion ... We were able to remove this overhead in our present Hash
// SpGEMM" (Section 4.2.1) — the portable kkmem retains it, which is one
// reason KokkosKernels trails the specialized Hash kernel in the paper's
// Figures 11–15, and the same gap appears in this reimplementation.
//
// Value updates are plain stores through Upsert's returned pointer: in this
// repository every table is owned by one worker (the kernels are row-
// parallel, never entry-parallel), so the historic CAS loop on float64 bit
// patterns bought nothing and does not generalize to arbitrary V. The key
// CAS is retained to keep the kkmem probe/claim cost model faithful.
type TwoLevelHashG[V semiring.Value] struct {
	l1Keys []int32
	l1Vals []V
	l1Used []int32
	l1Mask uint32
	l2     *HashTableG[V]
	// overflows counts operations delegated to level 2 after an exhausted
	// level-1 probe sequence, feeding the L2Overflows ExecStats counter.
	overflows int64
}

// TwoLevelHash is the float64 instantiation.
type TwoLevelHash = TwoLevelHashG[float64]

// l1ProbeBound is the maximum linear-probe distance in level 1 before
// delegating to level 2.
const l1ProbeBound = 8

// DefaultL1Size is the default level-1 capacity: 4096 slots × 12 bytes sits
// comfortably in a 256 KiB L2 tile, mirroring kkmem's cache-resident intent.
const DefaultL1Size = 4096

// NewTwoLevelHash returns a float64 two-level accumulator with the given
// level-1 capacity (a power of two; 0 selects DefaultL1Size).
func NewTwoLevelHash(l1Size int) *TwoLevelHash { return NewTwoLevelHashG[float64](l1Size) }

// NewTwoLevelHashG returns a two-level accumulator over V with the given
// level-1 capacity (a power of two; 0 selects DefaultL1Size).
func NewTwoLevelHashG[V semiring.Value](l1Size int) *TwoLevelHashG[V] {
	if l1Size == 0 {
		l1Size = DefaultL1Size
	}
	if l1Size < 16 || l1Size&(l1Size-1) != 0 {
		panic("accum: level-1 size must be a power of two >= 16")
	}
	t := &TwoLevelHashG[V]{
		l1Keys: make([]int32, l1Size),
		l1Vals: make([]V, l1Size),
		l1Mask: uint32(l1Size - 1),
		l2:     NewHashTableG[V](64),
	}
	t.l2.SetGrow(true)
	for i := range t.l1Keys {
		t.l1Keys[i] = emptyKey
	}
	return t
}

// Reset clears both levels in O(entries).
//
//spgemm:hotpath
func (t *TwoLevelHashG[V]) Reset() {
	for _, s := range t.l1Used {
		t.l1Keys[s] = emptyKey
	}
	t.l1Used = t.l1Used[:0]
	t.l2.Reset()
}

// Len returns the number of distinct keys across both levels.
func (t *TwoLevelHashG[V]) Len() int { return len(t.l1Used) + t.l2.Len() }

// Overflows returns the cumulative count of operations delegated to level 2.
func (t *TwoLevelHashG[V]) Overflows() int64 { return t.overflows }

// Lookups returns the cumulative operation count of the level-2 table (the
// level-1 fast path is deliberately uncounted to keep its CAS loop lean).
//
//spgemm:hotpath
func (t *TwoLevelHashG[V]) Lookups() int64 { return t.l2.Lookups() }

// Probes returns the collision probe steps of the level-2 table.
func (t *TwoLevelHashG[V]) Probes() int64 { return t.l2.Probes() }

// InsertSymbolic inserts key if absent, reporting whether it was new.
//
//spgemm:hotpath
func (t *TwoLevelHashG[V]) InsertSymbolic(key int32) bool {
	s := (uint32(key) * hashConst) & t.l1Mask
	for probe := 0; probe < l1ProbeBound; probe++ {
		k := atomic.LoadInt32(&t.l1Keys[s])
		if k == key {
			return false
		}
		if k == emptyKey {
			if atomic.CompareAndSwapInt32(&t.l1Keys[s], emptyKey, key) {
				t.l1Used = append(t.l1Used, int32(s))
				return true
			}
			// Lost the race (kkmem team semantics); re-read this slot.
			probe--
			continue
		}
		s = (s + 1) & t.l1Mask
	}
	t.overflows++
	return t.l2.InsertSymbolic(key)
}

// Upsert returns a pointer to key's value slot (level 1 or the overflow
// table) and whether the key is new. The pointer is invalidated by the next
// Upsert (the level-2 table grows); the caller must finish its read-modify-
// write before the next operation, which the row-by-row drivers do.
//
//spgemm:hotpath
func (t *TwoLevelHashG[V]) Upsert(key int32) (*V, bool) {
	s := (uint32(key) * hashConst) & t.l1Mask
	for probe := 0; probe < l1ProbeBound; probe++ {
		k := atomic.LoadInt32(&t.l1Keys[s])
		if k == key {
			return &t.l1Vals[s], false
		}
		if k == emptyKey {
			if atomic.CompareAndSwapInt32(&t.l1Keys[s], emptyKey, key) {
				t.l1Used = append(t.l1Used, int32(s))
				return &t.l1Vals[s], true
			}
			probe--
			continue
		}
		s = (s + 1) & t.l1Mask
	}
	t.overflows++
	return t.l2.Upsert(key)
}

// Lookup returns the value for key and whether it is present in either level.
func (t *TwoLevelHashG[V]) Lookup(key int32) (V, bool) {
	s := (uint32(key) * hashConst) & t.l1Mask
	for probe := 0; probe < l1ProbeBound; probe++ {
		k := t.l1Keys[s]
		if k == key {
			return t.l1Vals[s], true
		}
		if k == emptyKey {
			var zero V
			return zero, false
		}
		s = (s + 1) & t.l1Mask
	}
	return t.l2.Lookup(key)
}

// ExtractUnsorted writes all entries (level 1 then level 2) and returns the
// count.
//
//spgemm:hotpath
func (t *TwoLevelHashG[V]) ExtractUnsorted(cols []int32, vals []V) int {
	n := 0
	for _, s := range t.l1Used {
		cols[n] = t.l1Keys[s]
		vals[n] = t.l1Vals[s]
		n++
	}
	n += t.l2.ExtractUnsorted(cols[n:], vals[n:])
	return n
}

// ExtractSorted writes all entries in increasing key order.
//
//spgemm:hotpath
func (t *TwoLevelHashG[V]) ExtractSorted(cols []int32, vals []V) int {
	n := t.ExtractUnsorted(cols, vals)
	cols, vals = cols[:n], vals[:n]
	// One window over both levels' keys (level 2's scratch serves), then
	// each level places its own slots.
	r := &t.l2.rank
	if !r.window(cols) {
		sortPairs(cols, vals)
		return n
	}
	r.mark(cols)
	r.prefixSum()
	placeSlots(r, t.l1Keys, t.l1Vals, t.l1Used, cols, vals)
	placeSlots(r, t.l2.keys, t.l2.vals, t.l2.used, cols, vals)
	r.clear(cols)
	return n
}
