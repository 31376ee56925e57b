package accum

import "repro/internal/semiring"

// HashVecTableG is the accumulator of HashVector SpGEMM (Section 4.2.2). The
// table is divided into fixed-width chunks; the hash selects a chunk, and the
// whole chunk is scanned at once — on Xeon/Xeon Phi with AVX2/AVX-512
// compare instructions, here with a fixed-bound loop the compiler unrolls.
// New keys are pushed into a chunk from the front, so the first empty slot
// terminates the scan. When a chunk is full, probing moves to the next chunk
// (linear probing at chunk granularity).
//
// Go has no vector intrinsics, so the single-instruction 8-way compare is
// emulated; the algorithmic property — one probe step tests ChunkWidth keys,
// reducing probe counts under heavy collision at a slightly higher constant
// per step — is preserved, which is what the Hash-vs-HashVector crossover in
// the paper's Figures 11-14 depends on.
type HashVecTableG[V semiring.Value] struct {
	keys      []int32
	vals      []V
	used      []int32 // occupied slot indices
	chunkMask uint32
	width     uint32
	shift     uint32 // log2(width)
	probes    int64  // chunk-granularity probe steps beyond the first
	lookups   int64
	rank      ranker // sorted-extraction scratch (rank.go)
}

// HashVecTable is the float64 instantiation.
type HashVecTable = HashVecTableG[float64]

// DefaultChunkWidth matches a 256-bit vector register holding 8 int32 keys
// (the paper's Haswell configuration; KNL's AVX-512 doubles it to 16).
const DefaultChunkWidth = 8

// NewHashVecTableG returns a chunked table over V sized for bound entries
// with the default chunk width.
func NewHashVecTableG[V semiring.Value](bound int64) *HashVecTableG[V] {
	return NewHashVecTableWidthG[V](bound, DefaultChunkWidth)
}

// NewHashVecTableWidth returns a float64 chunked table with the given chunk
// width (a power of two ≥ 2); used by the chunk-width ablation benchmark.
func NewHashVecTableWidth(bound int64, width int) *HashVecTable {
	return NewHashVecTableWidthG[float64](bound, width)
}

// NewHashVecTableWidthG returns a chunked table over V with the given chunk
// width (a power of two ≥ 2).
func NewHashVecTableWidthG[V semiring.Value](bound int64, width int) *HashVecTableG[V] {
	if width < 2 || width&(width-1) != 0 {
		panic("accum: chunk width must be a power of two >= 2")
	}
	h := &HashVecTableG[V]{width: uint32(width)}
	for w := uint32(width); w > 1; w >>= 1 {
		h.shift++
	}
	h.Reserve(bound)
	return h
}

// Reserve re-sizes for bound entries and clears the table.
func (h *HashVecTableG[V]) Reserve(bound int64) {
	chunks := NextPow2((bound + int64(h.width) - 1) / int64(h.width))
	if chunks < 2 {
		chunks = 2
	}
	capacity := chunks * int64(h.width)
	if int64(len(h.keys)) != capacity {
		h.keys = make([]int32, capacity)
		h.vals = make([]V, capacity)
	}
	for i := range h.keys {
		h.keys[i] = emptyKey
	}
	h.used = h.used[:0]
	h.chunkMask = uint32(chunks - 1)
}

// Reset clears the table in O(entries).
//
//spgemm:hotpath
func (h *HashVecTableG[V]) Reset() {
	// Mask the slot index by len(keys)-1 (capacity is a power of two) so
	// the store is provably in bounds; see the BCE notes in hash.go.
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

// Len returns the number of distinct keys stored.
func (h *HashVecTableG[V]) Len() int { return len(h.used) }

// Cap returns the total slot capacity.
func (h *HashVecTableG[V]) Cap() int { return len(h.keys) }

// Probes returns cumulative chunk probe steps beyond the first.
func (h *HashVecTableG[V]) Probes() int64 { return h.probes }

// Lookups returns the cumulative operation count.
//
//spgemm:hotpath
func (h *HashVecTableG[V]) Lookups() int64 { return h.lookups }

//spgemm:hotpath
func (h *HashVecTableG[V]) chunk(key int32) uint32 {
	return (uint32(key) * hashConst) & h.chunkMask
}

// InsertSymbolic inserts key if absent, reporting whether it was new.
//
//spgemm:hotpath
func (h *HashVecTableG[V]) InsertSymbolic(key int32) bool {
	h.lookups++
	c := h.chunk(key)
	for {
		base := c << h.shift
		chunk := h.keys[base : base+h.width]
		// Emulated vector compare: scan the whole chunk. Keys are pushed
		// from the front, so the first empty slot means "not present".
		for i, k := range chunk {
			if k == key {
				return false
			}
			if k == emptyKey {
				chunk[i] = key
				h.used = append(h.used, int32(base)+int32(i))
				return true
			}
		}
		h.probes++
		c = (c + 1) & h.chunkMask
	}
}

// Upsert returns a pointer to key's value slot and whether the key is new
// (fresh slots hold stale contents; the caller stores the first product).
//
//spgemm:hotpath
func (h *HashVecTableG[V]) Upsert(key int32) (*V, bool) {
	h.lookups++
	c := h.chunk(key)
	for {
		base := c << h.shift
		chunk := h.keys[base : base+h.width]
		for i, k := range chunk {
			if k == key {
				return &h.vals[base+uint32(i)], false
			}
			if k == emptyKey {
				chunk[i] = key
				h.used = append(h.used, int32(base)+int32(i))
				return &h.vals[base+uint32(i)], true
			}
		}
		h.probes++
		c = (c + 1) & h.chunkMask
	}
}

// Lookup returns the value for key and whether it is present.
func (h *HashVecTableG[V]) Lookup(key int32) (V, bool) {
	c := h.chunk(key)
	for {
		base := c << h.shift
		chunk := h.keys[base : base+h.width]
		for i, k := range chunk {
			if k == key {
				return h.vals[base+uint32(i)], true
			}
			if k == emptyKey {
				var zero V
				return zero, false
			}
		}
		c = (c + 1) & h.chunkMask
	}
}

// ExtractUnsorted writes entries in insertion order; returns the count.
//
//spgemm:hotpath
func (h *HashVecTableG[V]) ExtractUnsorted(cols []int32, vals []V) int {
	used := h.used
	n := len(used)
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

// ExtractSorted writes entries in increasing key order; returns the count.
//
//spgemm:hotpath
func (h *HashVecTableG[V]) ExtractSorted(cols []int32, vals []V) int {
	return extractSortedSlots(&h.rank, h.keys, h.vals, h.used, cols, vals)
}

// ResetCounters zeroes the cumulative probe/lookup counters without touching
// the table contents or capacity. spgemm.Context calls it when reusing a
// cached table so per-call ExecStats keep the semantics of a fresh table.
func (h *HashVecTableG[V]) ResetCounters() { h.probes, h.lookups = 0, 0 }
