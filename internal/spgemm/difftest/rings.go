package difftest

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// Ring-differential harness: every kernel, cross-checked against the
// NaiveMultiplyRing oracle over every shipped semiring and value type.
//
// The predicate here is deliberately stricter than the float64 Equivalent:
// under a general semiring there is no notion of "explicit zeros may be
// dropped" — the output contract is that an entry exists iff at least one
// intermediate product landed on its position (min-plus keeps +Inf entries;
// plus-times keeps exact cancellations). So after sorting rows, got must
// match the oracle's structure entry-for-entry, with values compared by a
// per-type closeness function (exact for bool and the integer rings, a
// small relative tolerance for the float rings, whose kernels may fold
// contributions in a different association order than the oracle).

// EquivalentRing verifies got against the ring oracle result want: the
// structural InvariantsG, identical shape, exact entry structure after
// row-sorting a copy (no compaction), and per-entry value closeness.
func EquivalentRing[V semiring.Value](got, want *matrix.CSRG[V], close func(x, y V) bool) error {
	if err := InvariantsG(got); err != nil {
		return err
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	g := got
	if !g.Sorted || !g.IsSortedRows() {
		g = got.Clone()
		g.SortRows()
	}
	for i := 0; i <= g.Rows; i++ {
		if g.RowPtr[i] != want.RowPtr[i] {
			return fmt.Errorf("RowPtr[%d]=%d, want %d (entries dropped or fabricated)", i, g.RowPtr[i], want.RowPtr[i])
		}
	}
	for p := range want.ColIdx {
		if g.ColIdx[p] != want.ColIdx[p] {
			return fmt.Errorf("ColIdx[%d]=%d, want %d", p, g.ColIdx[p], want.ColIdx[p])
		}
		if !close(g.Val[p], want.Val[p]) {
			return fmt.Errorf("Val[%d]=%v, want %v", p, g.Val[p], want.Val[p])
		}
	}
	return nil
}

// CheckRing multiplies a·b over ring with the given algorithm, in each of its
// cuts, and verifies the result against NaiveMultiplyRing via
// EquivalentRing. Like Check, algorithms that require sorted input rows are
// expected to reject unsorted B with an error.
func CheckRing[V semiring.Value, R semiring.Ring[V]](caseName string, ring R, a, b *matrix.CSRG[V], alg spgemm.Algorithm, unsorted bool, workers int, close func(x, y V) bool) error {
	want := matrix.NaiveMultiplyRing(ring, a, b)
	for _, stripes := range cuts(alg) {
		name := fmt.Sprintf("%s/%v unsorted=%v workers=%d stripes=%d", caseName, alg, unsorted, workers, stripes)
		got, err := spgemm.MultiplyRing(ring, a, b, &spgemm.OptionsG[V]{Algorithm: alg, Unsorted: unsorted, Workers: workers, ShardMemBudget: stripeBudget(a, b, stripes)})
		if err != nil {
			if spgemm.RequiresSortedInput(alg) && !b.Sorted {
				return nil // documented rejection, not a defect
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		if spgemm.RequiresSortedInput(alg) && !b.Sorted {
			return fmt.Errorf("%s: accepted unsorted input instead of rejecting it", name)
		}
		if err := EquivalentRing(got, want, close); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// CheckOnePass is the one-pass route's leg: the unsorted one-worker Hash
// product of a·b, which takes the route when its flop bounds its output
// tightly, must be bit-identical to what the two-phase stripe loop writes
// in one stripe and match the ring oracle via EquivalentRing. The reference
// lands its stripe in a SpillSink under spillDir whose default budget holds
// the whole output: a sink keeps the product off the route, and the
// reference must show the symbolic pass the route skips. With mustRoute the
// product must also have taken the route, which spends nothing on symbolic.
func CheckOnePass[V semiring.Value, R semiring.Ring[V]](caseName string, ring R, a, b *matrix.CSRG[V], mustRoute bool, close func(x, y V) bool, spillDir string) error {
	var st, ref spgemm.ExecStats
	got, err := spgemm.MultiplyRing(ring, a, b, &spgemm.OptionsG[V]{Algorithm: spgemm.AlgHash, Unsorted: true, Workers: 1, Stats: &st})
	if err == nil && mustRoute && st.Phases[spgemm.PhaseSymbolic] != 0 {
		err = fmt.Errorf("ran a symbolic pass (%v), want the one-pass route", st.Phases[spgemm.PhaseSymbolic])
	}
	if err == nil {
		sink := spgemm.NewSpillSink[V](spillDir, 0)
		defer sink.Close()
		var twoPhase *matrix.CSRG[V]
		twoPhase, err = spgemm.MultiplyRing(ring, a, b, &spgemm.OptionsG[V]{Algorithm: spgemm.AlgHash, Unsorted: true, Workers: 1, ShardSink: sink, Stats: &ref})
		if err == nil && (ref.Phases[spgemm.PhaseSymbolic] == 0 || len(ref.Stripes) != 1) {
			err = fmt.Errorf("reference ran symbolic for %v in %d stripes, want a two-phase product in one", ref.Phases[spgemm.PhaseSymbolic], len(ref.Stripes))
		}
		if err == nil {
			err = identical(got, twoPhase)
		}
	}
	if err == nil {
		err = EquivalentRing(got, matrix.NaiveMultiplyRing(ring, a, b), close)
	}
	if err != nil {
		return fmt.Errorf("%s/one-pass: %w", caseName, err)
	}
	return nil
}

// CheckOneColumn is the one-column route's leg, for a·b with b of at most one
// column: the one-shot Hash product at W = 1, 2 and 3, sorted and unsorted,
// must take the route — no partition or symbolic time, no stripe stats, every
// product of the flop written directly — be bit-identical to the two-phase
// product and match the ring oracle via EquivalentRing. The two-phase
// reference is CheckOnePass's: the same product landed in a SpillSink under
// spillDir, which keeps it off the route, and whose stripes its stats list.
// With wantWorkers the route must also have cut at least W stripes, so that
// every stripe boundary is crossed.
func CheckOneColumn[V semiring.Value, R semiring.Ring[V]](caseName string, ring R, a, b *matrix.CSRG[V], wantWorkers bool, close func(x, y V) bool, spillDir string) error {
	flop, _ := matrix.Flop(a, b)
	want := matrix.NaiveMultiplyRing(ring, a, b)
	for w := 1; w <= 3; w++ {
		for _, unsorted := range []bool{false, true} {
			var st, ref spgemm.ExecStats
			opt := spgemm.OptionsG[V]{Algorithm: spgemm.AlgHash, Unsorted: unsorted, Workers: w, Stats: &st}
			got, err := spgemm.MultiplyRing(ring, a, b, &opt)
			tw := st.TotalWorker()
			if err == nil && (st.Phases[spgemm.PhasePartition] != 0 || st.Phases[spgemm.PhaseSymbolic] != 0 || len(st.Stripes) != 0 ||
				tw.Flop != flop || tw.DirectFlop != flop || tw.Rows != int64(a.Rows) || wantWorkers && len(st.Workers) != w) {
				err = fmt.Errorf("not the one-column route: partition %v, symbolic %v, %d stripe stats, %d workers, counters %+v (flop %d)",
					st.Phases[spgemm.PhasePartition], st.Phases[spgemm.PhaseSymbolic], len(st.Stripes), len(st.Workers), tw, flop)
			}
			if err == nil {
				sink := spgemm.NewSpillSink[V](spillDir, 0)
				opt.ShardSink, opt.Stats = sink, &ref
				var twoPhase *matrix.CSRG[V]
				if twoPhase, err = spgemm.MultiplyRing(ring, a, b, &opt); err == nil && a.Rows > 0 && len(ref.Stripes) == 0 {
					err = fmt.Errorf("the reference landed no stripe in its sink")
				}
				if err == nil {
					err = identical(got, twoPhase)
				}
				sink.Close()
			}
			if err == nil {
				err = EquivalentRing(got, want, close)
			}
			if err != nil {
				return fmt.Errorf("%s/one-column workers=%d unsorted=%v: %w", caseName, w, unsorted, err)
			}
		}
	}
	return nil
}

// CheckRuleSides is the leg of the kernels' one O(Cols) rule (Cols <= flop):
// the one-worker Hash product of a·b, sorted and unsorted, must be
// bit-identical to the same product with B padded by empty columns until
// Cols > flop — the padding moves both phases from stamps and the SPA to the
// hash table, and the padded product must not have touched stamps or the SPA.
// An unpadded product whose flop reaches its columns must not have touched
// the table, one short of them neither stamps nor the SPA; rows sized by
// their bound and rows of one entry touch none of the three.
func CheckRuleSides[V semiring.Value, R semiring.Ring[V]](caseName string, ring R, a, b *matrix.CSRG[V]) error {
	flop, _ := matrix.Flop(a, b)
	padded := *b
	padded.Cols = max(b.Cols, int(flop)+1)
	for _, unsorted := range []bool{false, true} {
		var dense, table spgemm.ExecStats
		opt := spgemm.OptionsG[V]{Algorithm: spgemm.AlgHash, Unsorted: unsorted, Workers: 1, Stats: &dense}
		want, err := spgemm.MultiplyRing(ring, a, b, &opt)
		if err == nil {
			opt.Stats = &table
			var got *matrix.CSRG[V]
			if got, err = spgemm.MultiplyRing(ring, a, &padded, &opt); err == nil {
				got.Cols = b.Cols
				err = identical(got, want)
			}
		}
		dw, tw := dense.TotalWorker(), table.TotalWorker()
		denseSide := flop >= int64(b.Cols)
		if err == nil && (tw.DenseFlop != 0 || tw.StampMarks != 0 || denseSide && dw.HashLookups != 0 || !denseSide && dw.DenseFlop+dw.StampMarks != 0) {
			err = fmt.Errorf("flop %d, %d columns: sides taken %+v and, padded, %+v", flop, b.Cols, dw, tw)
		}
		if err != nil {
			return fmt.Errorf("%s/rule sides unsorted=%v: %w", caseName, unsorted, err)
		}
	}
	return nil
}

// The count leg. spgemm.MaskedCount counts the products of A·B that land on
// a position of the mask's pattern, whatever their values, so the oracle is
// a triple loop over the three patterns, sharing no code with the kernel.

// maskCase is one mask shape of the count leg.
type maskCase[V semiring.Value] struct {
	name string
	m    *matrix.CSRG[V]
}

// masksFor builds the count leg's masks for a product whose pattern is
// want: an empty mask, every other row fully dense, per row the first column
// the product reaches next to two it never touches, and A itself when it has
// the output's shape (the triangle-counting mask). Two more are what a mask
// row's bitmap must survive: on the remaining rows two columns in three, each
// stored twice, in ascending order (flagged Sorted); and per row everything
// the product reaches plus the "untouched" row again, which repeats its
// reached column, in shuffled order. The built masks carry the zero V
// everywhere: only the pattern may matter.
func masksFor[V, W semiring.Value](a *matrix.CSRG[V], want *matrix.CSRG[W]) []maskCase[V] {
	rows, cols := want.Rows, want.Cols
	empty := &matrix.CSRG[V]{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	full, untouched, dup, shuffled := empty.Clone(), empty.Clone(), empty.Clone(), empty.Clone()
	dup.Sorted = true
	rng := rand.New(rand.NewSource(int64(rows)<<32 + int64(cols)))
	for i := 0; i < rows; i++ {
		touched, _ := want.Row(i)
		reached := make(map[int32]bool, len(touched))
		for _, c := range touched {
			reached[c] = true
		}
		misses, start := 0, len(untouched.ColIdx)
		for j := int32(0); int(j) < cols; j++ {
			if i%2 == 0 {
				full.ColIdx = append(full.ColIdx, j)
			} else if j%3 != 2 {
				dup.ColIdx = append(dup.ColIdx, j, j)
			}
			if !reached[j] && misses < 2 {
				misses++
				untouched.ColIdx = append(untouched.ColIdx, j)
			} else if reached[j] && j == touched[0] {
				untouched.ColIdx = append(untouched.ColIdx, j)
			}
		}
		row := append(append([]int32(nil), touched...), untouched.ColIdx[start:]...)
		rng.Shuffle(len(row), func(x, y int) { row[x], row[y] = row[y], row[x] })
		shuffled.ColIdx = append(shuffled.ColIdx, row...)
		full.RowPtr[i+1], untouched.RowPtr[i+1] = int64(len(full.ColIdx)), int64(len(untouched.ColIdx))
		dup.RowPtr[i+1], shuffled.RowPtr[i+1] = int64(len(dup.ColIdx)), int64(len(shuffled.ColIdx))
	}
	masks := []maskCase[V]{{"empty", empty}, {"full-rows", full}, {"untouched", untouched}, {"dup-cols", dup}, {"shuffled", shuffled}}
	for _, mc := range masks {
		mc.m.Val = make([]V, len(mc.m.ColIdx))
	}
	if a.Rows == rows && a.Cols == cols {
		masks = append(masks, maskCase[V]{"self", a})
	}
	return masks
}

// patternCount is the count leg's oracle: per entry k of A's row i and
// entry j of B's row k, one where row i of mask holds j.
func patternCount[V semiring.Value](a, b, mask *matrix.CSRG[V]) int64 {
	var n int64
	for i := 0; i < a.Rows; i++ {
		mcols, _ := mask.Row(i)
		keep := make(map[int32]bool, len(mcols))
		for _, j := range mcols {
			keep[j] = true
		}
		acols, _ := a.Row(i)
		for _, k := range acols {
			bcols, _ := b.Row(int(k))
			for _, j := range bcols {
				if keep[j] {
					n++
				}
			}
		}
	}
	return n
}

// CheckMaskedCount runs the count leg over a·b: under every mask of
// masksFor, spgemm.MaskedCount must equal patternCount and run Hash whatever
// Algorithm (AlgAuto here) asks. It does so at W = 1, 2 and 3, on B and the
// mask as given and padded by empty columns until Cols > flop, which widens
// every bitmap past the flop, and through ctx when it is non-nil, a Context
// the caller reuses across cases.
func CheckMaskedCount[V semiring.Value](caseName string, a, b *matrix.CSRG[V], ctx *spgemm.ContextG[V]) error {
	unit := func(V) bool { return true }
	pattern := matrix.NaiveMultiplyRing(semiring.OrAndBool{}, matrix.MapValues(a, unit), matrix.MapValues(b, unit))
	flop, _ := matrix.Flop(a, b)
	padded := *b
	padded.Cols = max(b.Cols, int(flop)+1)
	type side struct {
		name string
		b, m *matrix.CSRG[V]
		ctx  *spgemm.ContextG[V]
	}
	for _, mc := range masksFor(a, pattern) {
		want := patternCount(a, b, mc.m)
		pmask := *mc.m
		pmask.Cols = padded.Cols
		sides := []side{{"", b, mc.m, nil}, {" padded", &padded, &pmask, nil}}
		if ctx != nil {
			sides = append(sides, side{" ctx", b, mc.m, ctx})
		}
		for w := 1; w <= 3; w++ {
			for _, sd := range sides {
				var st spgemm.ExecStats
				got, err := spgemm.MaskedCount(a, sd.b, sd.m, &spgemm.OptionsG[V]{Workers: w, Context: sd.ctx, Stats: &st})
				if err == nil && st.Algorithm != spgemm.AlgHash {
					err = fmt.Errorf("ran %v, want hash", st.Algorithm)
				}
				if err == nil && got != want {
					err = fmt.Errorf("counted %d, want %d", got, want)
				}
				if err != nil {
					return fmt.Errorf("%s/mask=%s count%s workers=%d: %w", caseName, mc.name, sd.name, w, err)
				}
			}
		}
	}
	return nil
}

// Value-closeness predicates for EquivalentRing.

// ExactEq is bit equality — the right predicate for bool and integer rings,
// whose operations are exact and order-independent.
func ExactEq[V semiring.Value](x, y V) bool { return x == y }

// ApproxF64 compares float64 values with relative tolerance Tol; non-finite
// values match by class and sign (two NaNs, or two infinities of one sign).
func ApproxF64(x, y float64) bool {
	if x == y || x != x && y != y {
		return true
	}
	if math.IsInf(x, 0) || math.IsInf(y, 0) {
		return false
	}
	return math.Abs(x-y) <= Tol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
}

// Ring-view constructors: each maps the float64 differential Case inputs
// into a value type suited to one ring, so the whole Cases suite (including
// the degenerate shapes) exercises every instantiation.

// AsBool converts to the boolean pattern.
func AsBool(m *matrix.CSR) *matrix.CSRG[bool] {
	return matrix.MapValues(m, func(v float64) bool { return v != 0 })
}

// u64Bits are the word positions AsU64 draws from: both ends of the word and
// both sides of its 32-bit halves.
var u64Bits = [4]uint{0, 31, 32, 63}

// AsU64 converts to one-bit words for OrAndU64, the bit drawn from u64Bits by
// a hash of the value: two words share their bit a quarter of the time, so
// most & products are 0 == Zero() and the entries they land on must still
// exist — the min-plus hazard in bit form. No product or sum of these words
// holds bit 1, so a word with bit 1 set is a sentinel no kernel writes.
func AsU64(m *matrix.CSR) *matrix.CSRG[uint64] {
	return matrix.MapValues(m, func(v float64) uint64 {
		return 1 << u64Bits[math.Float64bits(v)*0x9E3779B97F4A7C15>>62]
	})
}

// AsMinPlus converts to min-plus path weights: non-negative, with values
// above a threshold pinned to +Inf so unreachable (Zero-valued) output
// entries are common — the structure-preservation hazard of min-plus.
func AsMinPlus(m *matrix.CSR) *matrix.CSR {
	return matrix.MapValues(m, func(v float64) float64 {
		av := math.Abs(v)
		if av > 1.2 {
			return math.Inf(1)
		}
		return av
	})
}
