package baseline

import (
	"sync/atomic"

	"repro/internal/accum"
)

// twoLevelHash models KokkosKernels' kkmem accumulator: a small fixed-size
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
// Value updates are plain stores through Upsert's returned pointer: every
// table is owned by one worker (the baselines are row-parallel, never
// entry-parallel). The key CAS is kept for kkmem's probe/claim cost model.
type twoLevelHash struct {
	l1Keys []int32
	l1Vals []float64
	l1Used []int32
	l1Mask uint32
	l2     *accum.HashTable
	// overflows counts operations delegated to level 2 after an exhausted
	// level-1 probe sequence, feeding the L2Overflows ExecStats counter.
	overflows int64
}

// l1ProbeBound is the maximum linear-probe distance in level 1 before
// delegating to level 2.
const l1ProbeBound = 8

// defaultL1Size is the default level-1 capacity: 4096 slots × 12 bytes sits
// comfortably in a 256 KiB L2 tile, mirroring kkmem's cache-resident intent.
const defaultL1Size = 4096

// newTwoLevelHash returns a two-level accumulator with the given level-1
// capacity (a power of two ≥ 16).
func newTwoLevelHash(l1Size int) *twoLevelHash {
	if l1Size < 16 || l1Size&(l1Size-1) != 0 {
		panic("baseline: level-1 size must be a power of two >= 16")
	}
	t := &twoLevelHash{
		l1Keys: make([]int32, l1Size),
		l1Vals: make([]float64, l1Size),
		l1Mask: uint32(l1Size - 1),
		l2:     accum.NewHashTable(64),
	}
	t.l2.SetGrow(true)
	for i := range t.l1Keys {
		t.l1Keys[i] = emptyKey
	}
	return t
}

// Reset clears both levels in O(entries).
func (t *twoLevelHash) Reset() {
	for _, s := range t.l1Used {
		t.l1Keys[s] = emptyKey
	}
	t.l1Used = t.l1Used[:0]
	t.l2.Reset()
}

// Len returns the number of distinct keys across both levels.
func (t *twoLevelHash) Len() int { return len(t.l1Used) + t.l2.Len() }

// Overflows returns the cumulative count of operations delegated to level 2.
func (t *twoLevelHash) Overflows() int64 { return t.overflows }

// Lookups returns the cumulative operation count of the level-2 table (the
// level-1 fast path is deliberately uncounted to keep its CAS loop lean).
func (t *twoLevelHash) Lookups() int64 { return t.l2.Lookups() }

// Probes returns the collision probe steps of the level-2 table.
func (t *twoLevelHash) Probes() int64 { return t.l2.Probes() }

// claimL1 probes level 1 for key, claiming an empty slot by CAS. It returns
// the slot and whether the key is new there, or ok false when the probe
// bound ran out and the key belongs to level 2.
func (t *twoLevelHash) claimL1(key int32) (slot uint32, fresh, ok bool) {
	s := (uint32(key) * hashConst) & t.l1Mask
	for probe := 0; probe < l1ProbeBound; probe++ {
		k := atomic.LoadInt32(&t.l1Keys[s])
		if k == key {
			return s, false, true
		}
		if k == emptyKey {
			if atomic.CompareAndSwapInt32(&t.l1Keys[s], emptyKey, key) {
				t.l1Used = append(t.l1Used, int32(s))
				return s, true, true
			}
			// Lost the race (kkmem team semantics); re-read this slot.
			probe--
			continue
		}
		s = (s + 1) & t.l1Mask
	}
	t.overflows++
	return 0, false, false
}

// InsertSymbolic inserts key if absent, reporting whether it was new.
func (t *twoLevelHash) InsertSymbolic(key int32) bool {
	if _, fresh, ok := t.claimL1(key); ok {
		return fresh
	}
	return t.l2.InsertSymbolic(key)
}

// Upsert returns a pointer to key's value slot (level 1 or the overflow
// table) and whether the key is new. The pointer is invalidated by the next
// Upsert (the level-2 table grows); the caller must finish its read-modify-
// write before the next operation, which the row-by-row drivers do.
func (t *twoLevelHash) Upsert(key int32) (*float64, bool) {
	if s, fresh, ok := t.claimL1(key); ok {
		return &t.l1Vals[s], fresh
	}
	return t.l2.Upsert(key)
}

// Lookup returns the value for key and whether it is present in either level.
func (t *twoLevelHash) Lookup(key int32) (float64, bool) {
	s := (uint32(key) * hashConst) & t.l1Mask
	for probe := 0; probe < l1ProbeBound; probe++ {
		switch t.l1Keys[s] {
		case key:
			return t.l1Vals[s], true
		case emptyKey:
			return 0, false
		}
		s = (s + 1) & t.l1Mask
	}
	return t.l2.Lookup(key)
}

// ExtractUnsorted writes all entries (level 1 then level 2) and returns the
// count.
func (t *twoLevelHash) ExtractUnsorted(cols []int32, vals []float64) int {
	for i, s := range t.l1Used {
		cols[i], vals[i] = t.l1Keys[s], t.l1Vals[s]
	}
	n := len(t.l1Used)
	return n + t.l2.ExtractUnsorted(cols[n:], vals[n:])
}

// ExtractSorted writes all entries in increasing key order.
func (t *twoLevelHash) ExtractSorted(cols []int32, vals []float64) int {
	n := t.ExtractUnsorted(cols, vals)
	accum.SortPairs(cols[:n], vals[:n])
	return n
}
