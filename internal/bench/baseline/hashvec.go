package baseline

import "repro/internal/accum"

// emptyKey marks a free slot in the baselines' open-addressed tables, and
// hashConst is the multiplicative hash of accum.HashTable (the golden-ratio
// constant), so the chunked and two-level tables spread keys as Hash does.
const (
	emptyKey  = int32(-1)
	hashConst = uint32(0x9E3779B1)
)

// hashVecTable is the accumulator of HashVector SpGEMM (Section 4.2.2). The
// table is divided into fixed-width chunks; the hash selects a chunk, and the
// whole chunk is scanned at once — on Xeon/Xeon Phi with AVX2/AVX-512
// compare instructions, here with a fixed-bound loop. New keys are pushed
// into a chunk from the front, so the first empty slot terminates the scan.
// When a chunk is full, probing moves to the next chunk (linear probing at
// chunk granularity).
//
// Go has no vector intrinsics, so the single-instruction 8-way compare is
// emulated: one probe step still tests chunkWidth keys, cutting probe counts
// under heavy collision at a higher constant per step. Without the vector
// compare that constant is never repaid, which is why HashVec is a figure
// baseline here and not a kernel.
type hashVecTable struct {
	keys      []int32
	vals      []float64
	used      []int32 // occupied slot indices
	chunkMask uint32
	width     uint32
	shift     uint32 // log2(width)
	probes    int64  // chunk-granularity probe steps beyond the first
	lookups   int64
}

// chunkWidth matches a 256-bit vector register holding 8 int32 keys (the
// paper's Haswell configuration; KNL's AVX-512 doubles it to 16).
const chunkWidth = 8

// newHashVecTable returns a chunked table sized for bound entries with the
// given chunk width (a power of two ≥ 2).
func newHashVecTable(bound int64, width int) *hashVecTable {
	if width < 2 || width&(width-1) != 0 {
		panic("baseline: chunk width must be a power of two >= 2")
	}
	h := &hashVecTable{width: uint32(width)}
	for w := uint32(width); w > 1; w >>= 1 {
		h.shift++
	}
	chunks := max(accum.NextPow2((bound+int64(width)-1)/int64(width)), 2)
	h.keys = make([]int32, chunks*int64(width))
	h.vals = make([]float64, len(h.keys))
	for i := range h.keys {
		h.keys[i] = emptyKey
	}
	h.chunkMask = uint32(chunks - 1)
	return h
}

// Reset clears the table in O(entries).
func (h *hashVecTable) Reset() {
	for _, s := range h.used {
		h.keys[s] = emptyKey
	}
	h.used = h.used[:0]
}

// Len returns the number of distinct keys stored.
func (h *hashVecTable) Len() int { return len(h.used) }

// Probes returns cumulative chunk probe steps beyond the first.
func (h *hashVecTable) Probes() int64 { return h.probes }

// Lookups returns the cumulative operation count.
func (h *hashVecTable) Lookups() int64 { return h.lookups }

// find returns key's slot and whether it was already present. With claim
// it takes the first empty slot of the key's chunk run when the key was not,
// and counts the chunk steps past the first (Lookup does neither).
func (h *hashVecTable) find(key int32, claim bool) (slot uint32, found bool) {
	c := (uint32(key) * hashConst) & h.chunkMask
	for {
		base := c << h.shift
		// Emulated vector compare: scan the whole chunk. Keys are pushed
		// from the front, so the first empty slot means "not present".
		for i, k := range h.keys[base : base+h.width] {
			switch k {
			case key:
				return base + uint32(i), true
			case emptyKey:
				if claim {
					h.keys[base+uint32(i)] = key
					h.used = append(h.used, int32(base)+int32(i))
				}
				return base + uint32(i), false
			}
		}
		if claim {
			h.probes++
		}
		c = (c + 1) & h.chunkMask
	}
}

// InsertSymbolic inserts key if absent, reporting whether it was new.
func (h *hashVecTable) InsertSymbolic(key int32) bool {
	h.lookups++
	_, found := h.find(key, true)
	return !found
}

// Upsert returns a pointer to key's value slot and whether the key is new
// (fresh slots hold stale contents; the caller stores the first product).
func (h *hashVecTable) Upsert(key int32) (*float64, bool) {
	h.lookups++
	s, found := h.find(key, true)
	return &h.vals[s], !found
}

// Lookup returns the value for key and whether it is present.
func (h *hashVecTable) Lookup(key int32) (float64, bool) {
	s, found := h.find(key, false)
	if !found {
		return 0, false
	}
	return h.vals[s], true
}

// ExtractUnsorted writes entries in insertion order; returns the count.
func (h *hashVecTable) ExtractUnsorted(cols []int32, vals []float64) int {
	for i, s := range h.used {
		cols[i], vals[i] = h.keys[s], h.vals[s]
	}
	return len(h.used)
}

// ExtractSorted writes entries in increasing key order; returns the count.
// The row is comparison-sorted, as the paper's HashVector sorts it.
func (h *hashVecTable) ExtractSorted(cols []int32, vals []float64) int {
	n := h.ExtractUnsorted(cols, vals)
	accum.SortPairs(cols[:n], vals[:n])
	return n
}
