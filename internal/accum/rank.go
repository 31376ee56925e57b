package accum

import (
	"math/bits"
	"slices"

	"repro/internal/semiring"
)

// Ranked extraction: the keys of one row are distinct, so sorting them is a
// rank query. Mark every key in a bitmap over the row's key window, count the
// set bits before each touched word, and a key's sorted position is
// prefix[word] + popcount(bits below it) — every (key, value) pair moves once,
// straight from its table slot to its final place. A summary bitmap (one bit
// per bitmap word) finds the touched words, so a row costs O(n + span/4096)
// and only touched words are ever written or cleared.

const (
	// rankMinN is the row length up to which sortPairs (an insertion sort at
	// this size) beats the four passes of the ranked path.
	rankMinN = 32
	// rankBlock is the key range one summary word covers (64 words × 64 bits);
	// windows start on a multiple of it so word and summary indices align.
	rankBlock = 64 * 64
	// rankMaxSpread bounds the window at this many key positions per entry.
	// Past it every key costs a cache miss in each of the three scratch
	// arrays and the summary scan grows, until the sort wins. Both constants
	// are the crossovers BenchmarkExtractSorted measures (EXPERIMENTS.md).
	// The bound also caps the scratch: 3/16 byte × rankMaxSpread per entry of
	// the widest row a worker has ranked, and a window is never wider than
	// the column space (power-of-two rounding can double either).
	rankMaxSpread = 8192
)

// ranker is the worker-private scratch of the ranked extraction. Every
// accumulator owns one; it grows (cold, power-of-two) to the widest window a
// row has needed and is all-zero between extractions, so it survives Reset
// and Reserve untouched.
type ranker struct {
	words   []uint64 // one bit per key position in the window
	prefix  []int32  // entries ranked before each touched word; len(words)
	summary []uint64 // one bit per word of words; len(words)/64

	// The current row's window, set by window: keys base … base+span-1.
	base int32
	span uint32
	// dense: the window has at most one bitmap word per entry, so the walk
	// visits all of them and mark skips the summary — in a narrow window every
	// key's summary bit lands in the same word, a store-to-load chain that
	// costs more than the walk saves.
	dense bool
}

// grow re-sizes the scratch to at least need bitmap words. Cold: a worker
// pays it a handful of times, then its widest row fits. It stays out of line
// so that its allocations stay out of the hot bodies that reach it, window and
// SPAG.Bitmap (through SPAG.ready).
//
//go:noinline
func (r *ranker) grow(need int) {
	n := int(NextPow2(int64(max(need, 64) - 1)))
	r.words = make([]uint64, n)
	r.prefix = make([]int32, n)
	r.summary = make([]uint64, n/64)
}

// window chooses the bitmap window for the distinct keys in cols: base is
// the smallest key rounded down to a rankBlock boundary, span the number of
// key positions from base through the largest key. It reports false when the
// row is short or spread too thin for ranking to beat sorting; otherwise the
// scratch covers the window on return.
//
//spgemm:hotpath
func (r *ranker) window(cols []int32) bool {
	n := len(cols)
	if n <= rankMinN {
		return false
	}
	lo, hi := cols[0], cols[0]
	for _, k := range cols[1:] {
		lo = min(lo, k)
		hi = max(hi, k)
	}
	base := lo &^ (rankBlock - 1)
	span := uint32(hi-base) + 1
	if uint64(span) > uint64(n)*rankMaxSpread {
		return false
	}
	if need := int((span + 63) >> 6); need > len(r.words) {
		r.grow(need)
	}
	r.base, r.span, r.dense = base, span, uint64(span) <= uint64(n)*64
	return true
}

// mark sets the bit of every key in cols and flags the touched words in the
// summary: one by one, or for a dense window all of them at once.
//
//spgemm:hotpath
func (r *ranker) mark(cols []int32) {
	words, summary := r.words, r.summary
	wm, sm := len(words)-1, len(summary)-1
	if wm < 0 || sm < 0 {
		return
	}
	base, dense := r.base, r.dense
	for _, k := range cols {
		off := uint32(k - base)
		w := int(off >> 6)
		words[w&wm] |= 1 << (off & 63)
		if !dense {
			summary[(w>>6)&sm] |= 1 << (uint(w) & 63)
		}
	}
	if dense {
		for sw := 0; sw <= int((r.span-1)/rankBlock); sw++ {
			summary[sw&sm] = ^uint64(0)
		}
	}
}

// prefixSum walks the flagged words of a marked window in increasing order,
// records how many entries rank before each, and clears the summary.
//
//spgemm:hotpath
func (r *ranker) prefixSum() {
	words, summary := r.words, r.summary
	wm, sm := len(words)-1, len(summary)-1
	if wm < 0 || sm < 0 {
		return
	}
	prefix := r.prefix[:len(words)]
	run := int32(0)
	for sw := 0; sw <= int((r.span-1)/rankBlock); sw++ {
		s := summary[sw&sm]
		if s == 0 {
			continue
		}
		summary[sw&sm] = 0
		for ; s != 0; s &= s - 1 {
			w := (sw<<6 | bits.TrailingZeros64(s)) & wm
			prefix[w] = run
			run += int32(bits.OnesCount64(words[w]))
		}
	}
}

// placeSlots writes each occupied slot of one open-addressed table (keys,
// tvals, used; len(keys) a power of two) to its ranked position in cols and
// vals. The window must be marked and prefix-summed over exactly the keys of
// every table placed into cols.
//
//spgemm:hotpath
func placeSlots[V semiring.Value](r *ranker, keys []int32, tvals []V, used []int32, cols []int32, vals []V) {
	words := r.words
	wm, mask := len(words)-1, len(keys)-1
	if wm < 0 || mask < 0 {
		return
	}
	prefix := r.prefix[:len(words)]
	tvals = tvals[:len(keys)]
	vals = vals[:len(cols)]
	base := r.base
	for _, s := range used {
		j := int(s) & mask
		k := keys[j]
		off := uint32(k - base)
		w := int(off>>6) & wm
		// The scatter index is data-dependent: its bounds check is the one
		// the rank loops keep (it is what catches a duplicate or foreign key).
		pos := int(prefix[w]) + bits.OnesCount64(words[w]&(1<<(off&63)-1))
		cols[pos] = k
		vals[pos] = tvals[j]
	}
}

// clear zeroes the bitmap words of the window — wholesale when dense, else
// by the keys in cols (sorted by now, so the walk is sequential) — leaving
// the scratch all-zero for the next row.
//
//spgemm:hotpath
func (r *ranker) clear(cols []int32) {
	words := r.words
	wm := len(words) - 1
	if wm < 0 {
		return
	}
	if r.dense {
		last := int(r.span-1) >> 6 & wm
		clear(words[:last+1])
		return
	}
	base := r.base
	for _, k := range cols {
		words[int(uint32(k-base)>>6)&wm] = 0
	}
}

// extractSortedSlots is ExtractSorted for one open-addressed table (keys,
// tvals, used; len(keys) a power of two): its entries go to cols and vals in
// increasing key order, ranked when the window rule allows and sorted
// otherwise. It returns the entry count.
//
//spgemm:hotpath
func extractSortedSlots[V semiring.Value](r *ranker, keys []int32, tvals []V, used []int32, cols []int32, vals []V) int {
	n := len(used)
	cols, vals = cols[:n], vals[:n]
	mask := len(keys) - 1
	if mask < 0 {
		return 0
	}
	for i, s := range used {
		cols[i] = keys[int(s)&mask]
	}
	if !r.window(cols) {
		tvals = tvals[:len(keys)]
		for i, s := range used {
			vals[i] = tvals[int(s)&mask]
		}
		sortPairs(cols, vals)
		return n
	}
	r.mark(cols)
	r.prefixSum()
	placeSlots(r, keys, tvals, used, cols, vals)
	r.clear(cols)
	return n
}

// sortKeys sorts distinct keys ascending in place: marked, then read back
// off the bitmap in order, clearing it on the way.
//
//spgemm:hotpath
func (r *ranker) sortKeys(cols []int32) {
	if !r.window(cols) {
		slices.Sort(cols)
		return
	}
	r.mark(cols)
	words, summary := r.words, r.summary
	wm, sm := len(words)-1, len(summary)-1
	if wm < 0 || sm < 0 {
		return
	}
	i := 0
	for sw := 0; sw <= int((r.span-1)/rankBlock); sw++ {
		s := summary[sw&sm]
		if s == 0 {
			continue
		}
		summary[sw&sm] = 0
		for ; s != 0; s &= s - 1 {
			w := sw<<6 | bits.TrailingZeros64(s)
			x := words[w&wm]
			words[w&wm] = 0
			first := r.base + int32(w<<6)
			for ; x != 0; x &= x - 1 {
				cols[i] = first + int32(bits.TrailingZeros64(x))
				i++
			}
		}
	}
}
