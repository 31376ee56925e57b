package accum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/semiring"
)

// sortedAcc is what the ranked-extraction tests need of an accumulator.
type sortedAcc[V semiring.Value] interface {
	Reset()
	Upsert(key int32) (*V, bool)
	ExtractSorted(cols []int32, vals []V) int
	ExtractUnsorted(cols []int32, vals []V) int
}

// hashAccs returns the accumulators with a ranked ExtractSorted over table
// slots (the hash table), with the scratch of each so tests can assert it is
// left all-zero.
func hashAccs[V semiring.Value](bound int64) (names []string, accs []sortedAcc[V], scratch []*ranker) {
	h := NewHashTableG[V](bound)
	return []string{"hash"}, []sortedAcc[V]{h}, []*ranker{&h.rank}
}

// distinctKeys draws n distinct keys from [lo, lo+span), in random order.
func distinctKeys(rng *rand.Rand, n int, lo int32, span int64) []int32 {
	if int64(n) > span {
		panic("distinctKeys: n > span")
	}
	keys := make([]int32, 0, n)
	if int64(n)*2 >= span {
		for _, o := range rng.Perm(int(span))[:n] {
			keys = append(keys, lo+int32(o))
		}
		return keys
	}
	seen := make(map[int32]bool, n)
	for len(keys) < n {
		k := lo + int32(rng.Int63n(span))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// checkExtractSorted fills acc with keys (value i-th = val(i)), extracts
// sorted, and compares with the sortPairs reference: same keys in the same
// order, and every value bit-for-bit the one stored under its key.
func checkExtractSorted[V semiring.Value](t *testing.T, name string, acc sortedAcc[V], r *ranker, keys []int32, val func(i int) V) {
	t.Helper()
	acc.Reset()
	for i, k := range keys {
		slot, fresh := acc.Upsert(k)
		if !fresh {
			t.Fatalf("%s: key %d upserted twice", name, k)
		}
		*slot = val(i)
	}
	n := len(keys)
	wantCols, wantVals := make([]int32, n), make([]V, n)
	if got := acc.ExtractUnsorted(wantCols, wantVals); got != n {
		t.Fatalf("%s: ExtractUnsorted = %d entries, want %d", name, got, n)
	}
	sortPairs(wantCols, wantVals)
	cols, vals := make([]int32, n), make([]V, n)
	if got := acc.ExtractSorted(cols, vals); got != n {
		t.Fatalf("%s: ExtractSorted = %d entries, want %d", name, got, n)
	}
	if !slices.Equal(cols, wantCols) {
		t.Fatalf("%s: n=%d keys differ from the sortPairs reference", name, n)
	}
	if !slices.Equal(vals, wantVals) {
		t.Fatalf("%s: n=%d values differ from the sortPairs reference", name, n)
	}
	if r != nil {
		assertScratchClean(t, name, r)
	}
}

// assertSlotsEmpty checks that an extraction left each slot of cols at the
// SPA's identity, -0.
func assertSlotsEmpty(t *testing.T, name string, spa *SPA, cols []int32) {
	t.Helper()
	for _, k := range cols {
		if v := spa.vals[k]; math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
			t.Fatalf("%s left slot %d holding %v, want -0", name, k, v)
		}
	}
}

func assertScratchClean(t *testing.T, name string, r *ranker) {
	t.Helper()
	for i, w := range r.words {
		if w != 0 {
			t.Fatalf("%s: bitmap word %d left stale (%#x)", name, i, w)
		}
	}
	for i, w := range r.summary {
		if w != 0 {
			t.Fatalf("%s: summary word %d left stale (%#x)", name, i, w)
		}
	}
}

// rankCases are the key sets of the property test: every row length of the
// issue's list against dense, single-word and maximally sparse windows placed
// at key 0, at the top of a column space, and just under MaxInt32.
func rankCases(rng *rand.Rand) map[string][]int32 {
	const cols = 1 << 20
	cases := map[string][]int32{}
	for _, n := range []int{0, 1, 24, 25, rankMinN, rankMinN + 1, 64, 4096} {
		if n == 0 {
			cases["n=0"] = nil
			continue
		}
		nn := int64(n)
		cases[fmt.Sprintf("n=%d/dense@0", n)] = distinctKeys(rng, n, 0, nn)
		cases[fmt.Sprintf("n=%d/dense@cols-1", n)] = distinctKeys(rng, n, int32(cols-nn), nn)
		cases[fmt.Sprintf("n=%d/dense@maxint32", n)] = distinctKeys(rng, n, int32(math.MaxInt32-nn+1), nn)
		cases[fmt.Sprintf("n=%d/unaligned", n)] = distinctKeys(rng, n, 4095, nn+37)
		if n <= 64 {
			cases[fmt.Sprintf("n=%d/oneword", n)] = distinctKeys(rng, n, 64*1000, 64)
		}
		// Maximally sparse: the whole int32 key space, and the widest window
		// the rule still ranks (it must include both ends).
		cases[fmt.Sprintf("n=%d/sparse-all", n)] = distinctKeys(rng, n, 0, math.MaxInt32)
		wide := distinctKeys(rng, n, 1, nn*rankMaxSpread-2)
		if n > 2 {
			wide[0], wide[1] = 0, int32(nn*rankMaxSpread-1)
		}
		cases[fmt.Sprintf("n=%d/sparse-ranked", n)] = wide
		cases[fmt.Sprintf("n=%d/ends", n)] = append(distinctKeys(rng, n-1, 1, cols-2), 0)
	}
	return cases
}

func testRankedExtraction[V semiring.Value](t *testing.T, val func(i int) V) {
	rng := rand.New(rand.NewSource(12))
	cases := rankCases(rng)
	order := make([]string, 0, len(cases))
	for name := range cases {
		order = append(order, name)
	}
	slices.Sort(order)
	names, accs, scratch := hashAccs[V](4096)
	// Two passes in shuffled order over the same accumulators: every case
	// follows ranked rows, sorted rows and wider and narrower windows, so a
	// bit left behind by one extraction corrupts a later one.
	for pass := 0; pass < 2; pass++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, c := range order {
			for a := range accs {
				checkExtractSorted(t, names[a]+"/"+c, accs[a], scratch[a], cases[c], val)
			}
		}
	}
}

func TestRankedExtractionFloat64(t *testing.T) {
	testRankedExtraction(t, func(i int) float64 { return float64(i) + 0.5 })
}

func TestRankedExtractionBool(t *testing.T) {
	testRankedExtraction(t, func(i int) bool { return i%3 == 0 })
}

func TestRankedExtractionInt64(t *testing.T) {
	testRankedExtraction(t, func(i int) int64 { return int64(i)*7 - 3 })
}

// TestRankedExtractionTakesBothPaths pins the window rule at its edges, so
// the property tests above are known to cover the ranked path and the sort.
func TestRankedExtractionTakesBothPaths(t *testing.T) {
	var r ranker
	seq := func(n int) []int32 {
		keys := make([]int32, n)
		for i := range keys {
			keys[i] = int32(i)
		}
		return keys
	}
	for _, tc := range []struct {
		name string
		keys []int32
		want bool
	}{
		{"n=rankMinN", seq(rankMinN), false},
		{"n=rankMinN+1", seq(rankMinN + 1), true},
		{"widest ranked", append(seq(99), 100*rankMaxSpread-1), true},
		{"one past", append(seq(99), 100*rankMaxSpread), false},
		{"whole key space", append(seq(99), math.MaxInt32), false},
	} {
		if ok := r.window(tc.keys); ok != tc.want {
			t.Errorf("%s: window ok = %v, want %v", tc.name, ok, tc.want)
		}
	}
}

// TestRankedKeysAndSPA covers the keys-only consumer of the ranker: the SPA's
// sorted extractions, from its own list (ExtractSorted) and from a Row
// loop's (Gather).
func TestRankedKeysAndSPA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const ncols = 1 << 16
	spa := NewSPA(ncols)
	for round := 0; round < 3; round++ {
		for _, n := range []int{0, 1, 24, 25, rankMinN, rankMinN + 1, 64, 4096} {
			for _, span := range []int64{int64(max(n, 1)), 5000, ncols} {
				if int64(n) > span {
					continue
				}
				keys := distinctKeys(rng, n, int32(ncols-span), span)
				want := slices.Clone(keys)
				slices.Sort(want)

				spa.Reset()
				for i, k := range keys {
					slot, _ := spa.Upsert(k)
					*slot = float64(i)
				}
				// Read the values back before the extraction, which empties
				// each slot it reads (the identity invariant).
				stored := make(map[int32]float64, n)
				for _, k := range keys {
					stored[k], _ = spa.Lookup(k)
				}
				got := make([]int32, n)
				vals := make([]float64, n)
				if spa.ExtractSorted(got, vals) != n || !slices.Equal(got, want) {
					t.Fatalf("SPA.ExtractSorted n=%d span=%d keys differ", n, span)
				}
				for i, k := range got {
					if vals[i] != stored[k] {
						t.Fatalf("SPA.ExtractSorted n=%d: value of key %d is %v, want %v", n, k, vals[i], stored[k])
					}
				}
				assertSlotsEmpty(t, "SPA.ExtractSorted", spa, got)
				// The same row through a Row loop seeded with its first half,
				// which lists the rest itself, then Gather.
				seed := make([]float64, n/2)
				for i := range seed {
					seed[i] = float64(i)
				}
				dense, stamp, gen := spa.Row(keys[:n/2], seed)
				listed := slices.Clone(keys[:n/2])
				for i, k := range keys[n/2:] {
					stamp[k], dense[k] = gen, float64(n/2+i)
					listed = append(listed, k)
				}
				spa.Gather(listed, vals, true)
				if !slices.Equal(listed, want) {
					t.Fatalf("SPA.Gather n=%d span=%d keys differ", n, span)
				}
				for i, k := range listed {
					if vals[i] != float64(slices.Index(keys, k)) {
						t.Fatalf("SPA.Gather n=%d: entry %d is (%d, %v)", n, i, k, vals[i])
					}
				}
				assertSlotsEmpty(t, "SPA.Gather", spa, listed)
				assertScratchClean(t, "spa", &spa.rank)
			}
		}
	}
}

// bitmapFold folds products (col, val) into a Bitmap row of s over ncols
// columns with += and extracts it, as the plus-times SPA row body does.
func bitmapFold(s *SPA, ncols int, pcols []int32, pvals []float64, cols []int32, vals []float64) int {
	dense, occ := s.Bitmap(ncols)
	for p, col := range pcols {
		occ[col>>6] |= 1 << (col & 63)
		dense[col] += pvals[p]
	}
	return s.ExtractBitmap(occ, cols, vals)
}

// TestSPABitmapRow: a Bitmap row over column spaces on both sides of a word
// boundary yields, in increasing column order, the bits an Upsert fold
// (first product stored, the rest added) leaves — -0, ±Inf and NaN included —
// though the SPA's previous row was folded by another rule and extracted
// unsorted, and leaves its slots at the identity and its bitmap clear.
func TestSPABitmapRow(t *testing.T) {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	palette := []float64{1, -1, 0, negZero, inf, -inf, math.NaN(), 2.5}
	draw := func(r *rand.Rand) float64 { return palette[r.Intn(len(palette))] }
	rng := rand.New(rand.NewSource(17))
	same := func(x, y float64) bool { return x == y || x != x && y != y }
	bitsOf := func(x float64) string { return fmt.Sprintf("%v/%x", x, math.Float64bits(x)) }
	for _, ncols := range []int{1, 63, 64, 65, 600, 4101} {
		s, ref := NewSPA(ncols), NewSPA(ncols)
		cols, vals := make([]int32, ncols), make([]float64, ncols)
		wantC, wantV := make([]int32, ncols), make([]float64, ncols)
		for round := 0; round < 4; round++ {
			// The previous row: another rule's values in s's slots.
			s.Reset()
			for p := 0; p < ncols; p++ {
				slot, _ := s.Upsert(int32(rng.Intn(ncols)))
				*slot = draw(rng)
			}
			s.ExtractUnsorted(cols, vals)
			products := 3 * ncols
			pcols, pvals := make([]int32, products), make([]float64, products)
			ref.Reset()
			for p := range pcols {
				pcols[p], pvals[p] = int32(rng.Intn(ncols)), draw(rng)
				if slot, fresh := ref.Upsert(pcols[p]); fresh {
					*slot = pvals[p]
				} else {
					*slot += pvals[p]
				}
			}
			want := ref.ExtractSorted(wantC, wantV)
			got := bitmapFold(s, ncols, pcols, pvals, cols, vals)
			if got != want || !slices.Equal(cols[:got], wantC[:want]) {
				t.Fatalf("ncols=%d: bitmap row has %d columns, want %d (or they differ)", ncols, got, want)
			}
			for i := range got {
				if !same(vals[i], wantV[i]) || math.Signbit(vals[i]) != math.Signbit(wantV[i]) {
					t.Fatalf("ncols=%d: column %d holds %s, want %s", ncols, cols[i], bitsOf(vals[i]), bitsOf(wantV[i]))
				}
			}
			for col, v := range s.vals {
				if v != s.empty || math.Signbit(v) != math.Signbit(s.empty) {
					t.Fatalf("ncols=%d: slot %d left holding %v", ncols, col, v)
				}
			}
			assertScratchClean(t, "SPA.Bitmap", &s.rank)
		}
	}
}

// TestExtractSortedSteadyStateZeroAllocs: once an accumulator has seen its
// widest row, an upsert → ExtractSorted cycle allocates nothing.
func TestExtractSortedSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := [][]int32{
		distinctKeys(rng, 2000, 0, 1<<18),  // ranked, wide window
		distinctKeys(rng, 300, 1<<20, 600), // ranked, far base
		distinctKeys(rng, 100, 0, 1<<30),   // sorted
		distinctKeys(rng, 10, 0, 1<<30),    // short
	}
	names, accs, _ := hashAccs[float64](2048)
	cols, vals := make([]int32, 2048), make([]float64, 2048)
	for a, acc := range accs {
		cycle := func() {
			for _, keys := range rows {
				acc.Reset()
				for _, k := range keys {
					slot, _ := acc.Upsert(k)
					*slot = 1
				}
				acc.ExtractSorted(cols, vals)
			}
		}
		cycle()
		if n := testing.AllocsPerRun(20, cycle); n != 0 {
			t.Errorf("%s: %v allocs per steady-state cycle, want 0", names[a], n)
		}
	}
	// A SPA's Bitmap rows: the bitmap is grown on the first, reused after.
	spa := NewSPA(1 << 14)
	bitmapRows := [][]int32{distinctKeys(rng, 2000, 0, 1<<14), distinctKeys(rng, 300, 0, 1<<12)}
	pvals := make([]float64, 2000)
	bitmapCycle := func() {
		for i, keys := range bitmapRows {
			bitmapFold(spa, 1<<(14-2*i), keys, pvals[:len(keys)], cols, vals)
		}
	}
	bitmapCycle()
	if n := testing.AllocsPerRun(20, bitmapCycle); n != 0 {
		t.Errorf("spa bitmap: %v allocs per steady-state cycle, want 0", n)
	}
}

// FuzzExtractSorted compares the ranked extraction of the hash table with
// the sortPairs reference on fuzzer-chosen key sets: row length, window width
// and window position are all free.
func FuzzExtractSorted(f *testing.F) {
	f.Add(int64(1), uint16(25), uint8(6), int32(0))
	f.Add(int64(2), uint16(4096), uint8(12), int32(math.MaxInt32-4096))
	f.Add(int64(3), uint16(64), uint8(31), int32(0))
	f.Add(int64(4), uint16(300), uint8(20), int32(4095))
	f.Add(int64(5), uint16(24), uint8(5), int32(63))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, spanLog uint8, lo int32) {
		if lo < 0 {
			lo = -(lo + 1)
		}
		span := min(int64(1)<<(spanLog%32), math.MaxInt32-int64(lo)+1)
		count := int(min(int64(n%5000), span))
		rng := rand.New(rand.NewSource(seed))
		keys := distinctKeys(rng, count, lo, span)
		names, accs, scratch := hashAccs[float64](int64(count))
		for round := 0; round < 2; round++ { // the second round reuses the scratch
			for a := range accs {
				checkExtractSorted(t, names[a], accs[a], scratch[a], keys, func(i int) float64 { return float64(i) })
			}
		}
	})
}

// BenchmarkExtractSorted sweeps row length × key window, ranked against the
// comparison sort, on a hash table filled (off the clock) with a different key
// set every iteration — a repeated set lets the branch predictor learn the
// sort. "ranked" runs the rank passes even where the window rule would turn
// the row away, so the crossover that rankMinN and rankMaxSpread encode is
// measured on both sides.
func BenchmarkExtractSorted(b *testing.B) {
	const keySets = 64
	for _, n := range []int{16, 32, 64, 512, 2048} {
		for _, spanLog := range []int{11, 15, 20, 24} {
			span := int64(1) << spanLog
			rng := rand.New(rand.NewSource(int64(n + spanLog)))
			sets := make([][]int32, keySets)
			for i := range sets {
				sets[i] = distinctKeys(rng, n, 0, span)
			}
			h := NewHashTable(int64(n))
			h.rank.grow(int(span >> 6))
			cols, vals := make([]int32, n), make([]float64, n)
			run := func(name string, extract func()) {
				b.Run(fmt.Sprintf("n=%d/span=2^%d/%s", n, spanLog, name), func(b *testing.B) {
					var ns int64
					for i := 0; i < b.N; i++ {
						h.Reset()
						for _, k := range sets[i%keySets] {
							slot, _ := h.Upsert(k)
							*slot = 1
						}
						t0 := time.Now()
						extract()
						ns += time.Since(t0).Nanoseconds()
					}
					b.ReportMetric(float64(ns)/float64(b.N)/float64(n), "ns/entry")
				})
			}
			run("ranked", func() {
				r := &h.rank
				for i, s := range h.used {
					cols[i] = h.keys[s]
				}
				if !r.window(cols) { // its min/max pass ran; overrule the verdict
					r.base, r.span, r.dense = 0, uint32(span), span <= int64(n)*64
				}
				r.mark(cols)
				r.prefixSum()
				placeSlots(r, h.keys, h.vals, h.used, cols, vals)
				r.clear(cols)
			})
			run("sortPairs", func() {
				h.ExtractUnsorted(cols, vals)
				sortPairs(cols, vals)
			})
		}
	}
	benchmarkDenseRows(b)
}

// benchmarkDenseRows times a sorted SPA row, fold and extraction, both ways
// on rows of n entries over cols columns, n on both sides of the bitmap rule
// ⌈cols/64⌉ <= n: "stamps" is the Row loop — stamp test, first product
// stored and listed — then Gather's sort; "bitmap" is the Bitmap loop, then
// its in-order walk. Each row folds 3n products (compression ratio 3, about
// the G500 square's).
func benchmarkDenseRows(b *testing.B) {
	const rowSets = 16
	for _, colsLog := range []int{11, 15} {
		ncols := 1 << colsLog
		words := ncols / 64
		for _, n := range []int{words / 16, words / 8, words / 4, words / 2, words, 2 * words} {
			rng := rand.New(rand.NewSource(int64(colsLog<<16 + n)))
			prods := make([][]int32, rowSets)
			for r := range prods {
				keys := distinctKeys(rng, n, 0, int64(ncols))
				prods[r] = append(prods[r], keys...) // every key once, then twice more at random
				for range 2 * n {
					prods[r] = append(prods[r], keys[rng.Intn(n)])
				}
			}
			pvals := make([]float64, 3*n)
			for p := range pvals {
				pvals[p] = rng.NormFloat64()
			}
			spa := NewSPA(ncols)
			cols, vals := make([]int32, n), make([]float64, n)
			rule := "stamps"
			if (ncols+63)>>6 <= n {
				rule = "bitmap"
			}
			run := func(name string, row func([]int32)) {
				b.Run(fmt.Sprintf("dense/cols=2^%d/n=%d/rule=%s/%s", colsLog, n, rule, name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						row(prods[i%rowSets])
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
				})
			}
			run("stamps", func(pc []int32) {
				dense, stamp, gen := spa.Row(nil, nil)
				k := 0
				for p, col := range pc {
					if stamp[col] != gen {
						stamp[col], dense[col], cols[k] = gen, pvals[p], col
						k++
					} else {
						dense[col] += pvals[p]
					}
				}
				spa.Gather(cols[:k], vals, true)
			})
			run("bitmap", func(pc []int32) { bitmapFold(spa, ncols, pc, pvals, cols, vals) })
		}
	}
}
