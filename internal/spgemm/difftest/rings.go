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

// The masked leg. Options.Mask restricts the output to the mask's pattern,
// so the oracle is the unmasked oracle result with the entries outside the
// pattern removed — and nothing else: an entry inside it survives even when
// its value equals ring.Zero(), and a mask position no product reaches
// fabricates nothing.

// maskCase is one mask shape of the masked leg.
type maskCase[V semiring.Value] struct {
	name string
	m    *matrix.CSRG[V]
}

// masksFor builds the masked leg's masks for a product whose unmasked oracle
// result is want: an empty mask, every other row fully dense, per row the
// first column the product reaches next to two it never touches, and A itself
// when it has the output's shape (the triangle-counting mask). Two more are
// what a col→slot index must survive: on the remaining rows two columns in
// three, each stored twice, in ascending order (flagged Sorted, so the output
// row has to ascend with no sort behind it); and per row everything the
// product reaches plus the "untouched" row again, which repeats its reached
// column, in shuffled order. The built masks carry the zero V everywhere:
// only the pattern may matter.
func masksFor[V semiring.Value](a, want *matrix.CSRG[V]) []maskCase[V] {
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

// filterByPattern returns the entries of m (sorted rows) whose position is
// in mask's pattern.
func filterByPattern[V semiring.Value](m, mask *matrix.CSRG[V]) *matrix.CSRG[V] {
	out := &matrix.CSRG[V]{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1), Sorted: true}
	for i := 0; i < m.Rows; i++ {
		keep := make(map[int32]bool)
		mcols, _ := mask.Row(i)
		for _, c := range mcols {
			keep[c] = true
		}
		cols, vals := m.Row(i)
		for p, c := range cols {
			if keep[c] {
				out.ColIdx = append(out.ColIdx, c)
				out.Val = append(out.Val, vals[p])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// CheckRingMasked runs the masked leg over a·b: AlgHash and AlgAuto (which
// must resolve to it) under every mask of masksFor, each verified against the
// filtered oracle via EquivalentRing. The AlgHash product then runs again with
// B and the mask padded by empty columns until Cols > flop, which puts the
// mask index on the hash table whichever side denseRule gave the unpadded
// one; it must be bit-identical to the unpadded result. ctx, when non-nil, is
// a reused Context: the result must then also be bit-identical to the one-shot
// call's. Every mask then runs the row-sum leg (checkRowSums).
func CheckRingMasked[V semiring.Value, R semiring.Ring[V]](caseName string, ring R, a, b *matrix.CSRG[V], unsorted bool, workers int, ctx *spgemm.ContextG[V], close func(x, y V) bool) error {
	full := matrix.NaiveMultiplyRing(ring, a, b)
	flop, _ := matrix.Flop(a, b)
	padded := *b
	padded.Cols = max(b.Cols, int(flop)+1)
	for _, mc := range masksFor(a, full) {
		want := filterByPattern(full, mc.m)
		var oneShot *matrix.CSRG[V]
		for _, alg := range []spgemm.Algorithm{spgemm.AlgHash, spgemm.AlgAuto} {
			name := fmt.Sprintf("%s/mask=%s/%v unsorted=%v workers=%d", caseName, mc.name, alg, unsorted, workers)
			var st spgemm.ExecStats
			got, err := spgemm.MultiplyRing(ring, a, b, &spgemm.OptionsG[V]{
				Algorithm: alg, Unsorted: unsorted, Workers: workers, Mask: mc.m, Stats: &st})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if st.Algorithm != spgemm.AlgHash {
				return fmt.Errorf("%s: ran %v, want hash", name, st.Algorithm)
			}
			if err := EquivalentRing(got, want, close); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			oneShot = got
		}
		pmask := *mc.m
		pmask.Cols = padded.Cols
		got, err := spgemm.MultiplyRing(ring, a, &padded, &spgemm.OptionsG[V]{
			Algorithm: spgemm.AlgHash, Unsorted: unsorted, Workers: workers, Mask: &pmask})
		if err == nil {
			got.Cols = b.Cols
			err = identical(got, oneShot)
		}
		if err != nil {
			return fmt.Errorf("%s/mask=%s padded unsorted=%v workers=%d: %w", caseName, mc.name, unsorted, workers, err)
		}
		if err := checkRowSums(ring, a, b, &padded, mc.m, &pmask, want, workers, ctx, close); err != nil {
			return fmt.Errorf("%s/mask=%s: %w", caseName, mc.name, err)
		}
		if ctx == nil {
			continue
		}
		got, err = spgemm.MultiplyRing(ring, a, b, &spgemm.OptionsG[V]{
			Algorithm: spgemm.AlgHash, Unsorted: unsorted, Workers: workers, Mask: mc.m, Context: ctx})
		if err == nil {
			err = identical(got, oneShot)
		}
		if err != nil {
			return fmt.Errorf("%s/mask=%s ctx unsorted=%v workers=%d: %w", caseName, mc.name, unsorted, workers, err)
		}
	}
	return nil
}

// checkRowSums is the masked leg's row-sum half: spgemm.MaskedRowSums of a·b
// under mask must give every row the fold of want's row (the filtered oracle,
// sorted) with ring.Add from ring.Zero(), as close judges: at W = 1 and at
// workers, on B and the mask as given and padded (the index's table side), and
// through ctx when it is non-nil.
func checkRowSums[V semiring.Value, R semiring.Ring[V]](ring R, a, b, padded, mask, pmask, want *matrix.CSRG[V], workers int, ctx *spgemm.ContextG[V], close func(x, y V) bool) error {
	sums := make([]V, want.Rows)
	for i := range sums {
		sums[i] = ring.Zero()
		for _, v := range want.Val[want.RowPtr[i]:want.RowPtr[i+1]] {
			sums[i] = ring.Add(sums[i], v)
		}
	}
	type side struct {
		name string
		b, m *matrix.CSRG[V]
		ctx  *spgemm.ContextG[V]
	}
	sides := []side{{"", b, mask, nil}, {" padded", padded, pmask, nil}}
	if ctx != nil {
		sides = append(sides, side{" ctx", b, mask, ctx})
	}
	for _, w := range []int{1, workers} {
		for _, sd := range sides {
			got, err := spgemm.MaskedRowSums(ring, a, sd.b, &spgemm.OptionsG[V]{Workers: w, Mask: sd.m, Context: sd.ctx})
			if err == nil && len(got) != len(sums) {
				err = fmt.Errorf("%d sums, want %d", len(got), len(sums))
			}
			for i := 0; err == nil && i < len(sums); i++ {
				if !close(got[i], sums[i]) {
					err = fmt.Errorf("row %d sums to %v, want %v", i, got[i], sums[i])
				}
			}
			if err != nil {
				return fmt.Errorf("row sums%s workers=%d: %w", sd.name, w, err)
			}
		}
	}
	return nil
}

// Value-closeness predicates for EquivalentRing.

// ExactEq is bit equality — the right predicate for bool and integer rings,
// whose operations are exact and order-independent.
func ExactEq[V semiring.Value](x, y V) bool { return x == y }

// ApproxF64 compares float64 values with relative tolerance Tol, treating
// same-signed infinities as equal (min-plus unreachable entries).
func ApproxF64(x, y float64) bool {
	if x == y {
		return true
	}
	d := math.Abs(x - y)
	scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	return d <= Tol*scale
}

// TolF32 is the float32 analogue of Tol: float32 has ~7 significant digits,
// so reassociated sums diverge many orders of magnitude sooner.
const TolF32 = 1e-4

// ApproxF32 compares float32 values with relative tolerance TolF32.
func ApproxF32(x, y float32) bool {
	if x == y {
		return true
	}
	xf, yf := float64(x), float64(y)
	d := math.Abs(xf - yf)
	scale := math.Max(1, math.Max(math.Abs(xf), math.Abs(yf)))
	return d <= TolF32*scale
}

// Ring-view constructors: each maps the float64 differential Case inputs
// into a value type suited to one ring, so the whole Cases suite (including
// the degenerate shapes) exercises every instantiation.

// AsF32 converts to float32 values.
func AsF32(m *matrix.CSR) *matrix.CSRG[float32] {
	return matrix.MapValues(m, func(v float64) float32 { return float32(v) })
}

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

// AsI64 converts to small integer weights (round toward a [-3,3] range, so
// products and sums stay far from overflow while zeros still occur).
func AsI64(m *matrix.CSR) *matrix.CSRG[int64] {
	return matrix.MapValues(m, func(v float64) int64 { return int64(math.Round(v * 3)) })
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
