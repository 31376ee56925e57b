// Package accum implements the per-row accumulators that distinguish the
// SpGEMM kernels (Section 4.2): the linear-probing hash table of Hash
// SpGEMM, the k-way merge heap of Heap SpGEMM, and the dense sparse
// accumulator (SPA) of Gustavson's algorithm. The chunked table of
// HashVector SpGEMM and KokkosKernels' two-level hashmap are figure
// baselines and live with them in internal/bench/baseline.
//
// All accumulators are generic over the stored value type V and know nothing
// about semirings: the single value-level operation they expose is
// Upsert(key) → (*V, fresh), which returns a pointer to the value slot for
// key and whether the key is new. The SpGEMM drivers apply the (inlined,
// monomorphized) ring operations to the slot; the float64 type aliases
// (HashTable, SPA, …) preserve the historic API.
//
// All accumulators follow the paper's allocation discipline: they are owned
// by one worker, allocated once at the upper-bound size for that worker's
// rows, and reinitialized per row in O(entries) time rather than O(size).
package accum

import "repro/internal/semiring"

const emptyKey = int32(-1)

// hashConst is the multiplicative hashing constant. The paper multiplies the
// column index by a constant and takes the remainder modulo the (power of
// two) table size; 0x9E3779B1 is the golden-ratio constant, which spreads
// consecutive indices well.
const hashConst = uint32(0x9E3779B1)

// NextPow2 returns the smallest power of two strictly greater than n, which
// is how the paper sizes hash tables ("Return minimum 2^n so that 2^n >
// size_t"), guaranteeing at least one empty slot.
func NextPow2(n int64) int64 {
	p := int64(1)
	for p <= n {
		p <<= 1
	}
	return p
}

// HashTableG is the accumulator of Hash SpGEMM: open addressing with linear
// probing over a power-of-two table, keys initialized to -1. It tracks the
// occupied slots so a per-row reset costs O(entries), not O(capacity).
type HashTableG[V semiring.Value] struct {
	keys []int32
	vals []V
	used []int32 // occupied slot indices in insertion order
	mask uint32
	// probes counts every extra probe step beyond the first, i.e. the
	// collision work. probes/inserts+1 approximates the paper's collision
	// factor c of Equation (2).
	probes  int64
	lookups int64
	// grow enables automatic rehashing at 3/4 load. The paper's Hash
	// SpGEMM presizes tables from the flop upper bound and never grows;
	// the two-level table of the Kokkos figure baseline uses a growing
	// second level.
	grow bool
	rank ranker // sorted-extraction scratch (rank.go)
}

// HashTable is the float64 instantiation — the historic type of this package.
type HashTable = HashTableG[float64]

// NewHashTable returns a float64 table with capacity the smallest power of
// two strictly greater than bound (minimum 16).
func NewHashTable(bound int64) *HashTable { return NewHashTableG[float64](bound) }

// NewHashTableG returns a table over V with capacity the smallest power of
// two strictly greater than bound (minimum 16).
func NewHashTableG[V semiring.Value](bound int64) *HashTableG[V] {
	h := &HashTableG[V]{}
	h.Reserve(bound)
	return h
}

// Reserve re-sizes the table to hold bound entries (capacity = NextPow2,
// min 16) and clears it. Existing entries are discarded.
func (h *HashTableG[V]) Reserve(bound int64) {
	capacity := NextPow2(bound)
	if capacity < 16 {
		capacity = 16
	}
	if int64(len(h.keys)) != capacity {
		h.keys = make([]int32, capacity)
		h.vals = make([]V, capacity)
	}
	for i := range h.keys {
		h.keys[i] = emptyKey
	}
	h.used = h.used[:0]
	h.mask = uint32(capacity - 1)
}

// Reset clears the table in O(entries) by walking the used-slot list.
//
//spgemm:hotpath
func (h *HashTableG[V]) Reset() {
	// Deriving the mask from len(keys) lets the prove pass see
	// s&mask < len(keys) and drop the bounds check in the loop
	// (lint/budget.txt [bce] budgets the residuals).
	keys := h.keys
	mask := len(keys) - 1
	if mask < 0 {
		return
	}
	for _, s := range h.used {
		keys[int(s)&mask] = emptyKey
	}
	h.used = h.used[:0]
}

// Len returns the number of distinct keys currently stored.
func (h *HashTableG[V]) Len() int { return len(h.used) }

// Cap returns the table capacity (a power of two).
func (h *HashTableG[V]) Cap() int { return len(h.keys) }

// Probes returns the cumulative count of collision probe steps; divide by
// Lookups for the mean collision factor.
func (h *HashTableG[V]) Probes() int64 { return h.probes }

// Lookups returns the cumulative number of insert/accumulate operations.
//
//spgemm:hotpath
func (h *HashTableG[V]) Lookups() int64 { return h.lookups }

//spgemm:hotpath
func (h *HashTableG[V]) slot(key int32) uint32 {
	return (uint32(key) * hashConst) & h.mask
}

// InsertSymbolic inserts key if absent and reports whether it was new. This
// is the whole inner loop of the symbolic phase: values are not touched.
//
//spgemm:hotpath
func (h *HashTableG[V]) InsertSymbolic(key int32) bool {
	h.lookups++
	// Probe with an int cursor masked by len(keys)-1 so every keys[s] in
	// the loop is provably in bounds (no IsInBounds per probe step).
	keys := h.keys
	mask := len(keys) - 1
	if mask < 0 {
		return false
	}
	// The mask is applied at each index use (not on the loop cursor): the
	// prove pass bounds j = s&mask directly, but loses the bound through
	// the loop-carried phi of a pre-masked cursor.
	s := int(uint32(key) * hashConst)
	for {
		j := s & mask
		k := keys[j]
		if k == key {
			return false
		}
		if k == emptyKey {
			keys[j] = key
			h.used = append(h.used, int32(j))
			h.maybeGrow()
			return true
		}
		h.probes++
		s++
	}
}

// Upsert returns a pointer to the value slot for key and whether the key is
// new. On fresh == true the slot's contents are stale; the caller must store
// a value before the next extraction (the SpGEMM drivers write the first
// product, then ring.Add into the slot on subsequent hits). The pointer is
// invalidated by the next Upsert/InsertSymbolic on a grow-enabled table.
//
//spgemm:hotpath
func (h *HashTableG[V]) Upsert(key int32) (*V, bool) {
	h.lookups++
	// Same masked-index shape as InsertSymbolic; vals is re-sliced to
	// len(keys) so vals[j] shares the proof (one slice check at entry
	// replaces an IsInBounds per probe step). The grow path lives in its
	// own method so keys/mask/vals stay loop-invariant — reassigning them
	// in the loop makes them phis and defeats the prove pass.
	keys := h.keys
	mask := len(keys) - 1
	if mask < 0 {
		return nil, false
	}
	vals := h.vals[:len(keys)]
	s := int(uint32(key) * hashConst)
	for {
		j := s & mask
		k := keys[j]
		if k == key {
			return &vals[j], false
		}
		if k == emptyKey {
			if h.grow && (len(h.used)+1)*4 >= len(keys)*3 {
				return h.upsertGrow(key)
			}
			keys[j] = key
			h.used = append(h.used, int32(j))
			return &vals[j], true
		}
		h.probes++
		s++
	}
}

// upsertGrow is Upsert's cold path: rehash into a doubled table, then insert
// key (known absent — the caller only gets here after probing to an empty
// slot) so the returned pointer aims at the post-rehash storage.
func (h *HashTableG[V]) upsertGrow(key int32) (*V, bool) {
	h.growRehash()
	s := h.slot(key)
	for h.keys[s] != emptyKey {
		h.probes++
		s = (s + 1) & h.mask
	}
	h.keys[s] = key
	h.used = append(h.used, int32(s))
	return &h.vals[s], true
}

// Lookup returns the value stored for key and whether it is present: one
// call per product of a masked row whose mask is indexed by a table.
//
//spgemm:hotpath
func (h *HashTableG[V]) Lookup(key int32) (V, bool) {
	s := h.slot(key)
	for {
		k := h.keys[s]
		if k == key {
			return h.vals[s], true
		}
		if k == emptyKey {
			var zero V
			return zero, false
		}
		s = (s + 1) & h.mask
	}
}

// SetGrow enables or disables automatic rehashing at 3/4 load.
func (h *HashTableG[V]) SetGrow(on bool) { h.grow = on }

func (h *HashTableG[V]) maybeGrow() {
	if !h.grow || len(h.used)*4 < len(h.keys)*3 {
		return
	}
	h.growRehash()
}

func (h *HashTableG[V]) growRehash() {
	oldKeys, oldVals, oldUsed := h.keys, h.vals, append([]int32(nil), h.used...)
	capacity := int64(len(h.keys)) * 2
	h.keys = make([]int32, capacity)
	h.vals = make([]V, capacity)
	for i := range h.keys {
		h.keys[i] = emptyKey
	}
	h.mask = uint32(capacity - 1)
	h.used = h.used[:0]
	for _, s := range oldUsed {
		key := oldKeys[s]
		v := oldVals[s]
		ns := h.slot(key)
		for h.keys[ns] != emptyKey {
			ns = (ns + 1) & h.mask
		}
		h.keys[ns] = key
		h.vals[ns] = v
		h.used = append(h.used, int32(ns))
	}
}

// ExtractUnsorted appends the (key, value) pairs in insertion order to cols
// and vals, which must have room for Len() more entries starting at offset.
// It returns the number of entries written.
//
//spgemm:hotpath
func (h *HashTableG[V]) ExtractUnsorted(cols []int32, vals []V) int {
	used := h.used
	n := len(used)
	// Reslicing the destinations to n and masking the slot index trades
	// four per-entry bounds checks for two slice checks at entry.
	cols = cols[:n]
	vals = vals[:n]
	keys := h.keys
	mask := len(keys) - 1
	if mask < 0 {
		return 0
	}
	tvals := h.vals[:len(keys)]
	for i, s := range used {
		j := int(s) & mask
		cols[i] = keys[j]
		vals[i] = tvals[j]
	}
	return n
}

// ExtractSorted writes the (key, value) pairs in increasing key order — the
// step the paper shows algorithms can skip when unsorted output is
// acceptable. Rows past rankMinN entries are ranked in linear time (rank.go);
// short or thinly spread rows take the comparison sort.
//
//spgemm:hotpath
func (h *HashTableG[V]) ExtractSorted(cols []int32, vals []V) int {
	return extractSortedSlots(&h.rank, h.keys, h.vals, h.used, cols, vals)
}

// sortPairs sorts cols ascending carrying vals along: insertion sort for
// short rows, median-of-three quicksort above. It is the fallback of the
// ranked extraction (rows the window rule of rank.go turns away) and the
// sort of kernels whose keys repeat (ESC's expansion).
//
//spgemm:hotpath
func sortPairs[V semiring.Value](cols []int32, vals []V) {
	for len(cols) > 24 {
		// Median-of-three pivot to dodge the sorted/reversed worst cases.
		n := len(cols)
		m := n / 2
		if cols[m] < cols[0] {
			cols[m], cols[0] = cols[0], cols[m]
			vals[m], vals[0] = vals[0], vals[m]
		}
		if cols[n-1] < cols[0] {
			cols[n-1], cols[0] = cols[0], cols[n-1]
			vals[n-1], vals[0] = vals[0], vals[n-1]
		}
		if cols[n-1] < cols[m] {
			cols[n-1], cols[m] = cols[m], cols[n-1]
			vals[n-1], vals[m] = vals[m], vals[n-1]
		}
		pivot := cols[m]
		i, j := 0, n-1
		for i <= j {
			for cols[i] < pivot {
				i++
			}
			for cols[j] > pivot {
				j--
			}
			if i <= j {
				cols[i], cols[j] = cols[j], cols[i]
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j+1 < n-i {
			sortPairs(cols[:j+1], vals[:j+1])
			cols, vals = cols[i:], vals[i:]
		} else {
			sortPairs(cols[i:], vals[i:])
			cols, vals = cols[:j+1], vals[:j+1]
		}
	}
	// Insertion sort for the base case.
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1] = cols[j]
			vals[j+1] = vals[j]
			j--
		}
		cols[j+1] = c
		vals[j+1] = v
	}
}

// SortPairs sorts cols ascending carrying vals along (exported for the
// kernels that maintain their own column/value staging buffers).
//
//spgemm:hotpath
func SortPairs[V semiring.Value](cols []int32, vals []V) { sortPairs(cols, vals) }

// ResetCounters zeroes the cumulative probe/lookup counters without touching
// the table contents or capacity. spgemm.Context calls it when reusing a
// cached table so per-call ExecStats keep the semantics of a fresh table.
func (h *HashTableG[V]) ResetCounters() { h.probes, h.lookups = 0, 0 }
