// Package difftest is the randomized differential correctness harness for
// the SpGEMM implementations: every Algorithm is cross-checked against the
// sequential matrix.NaiveMultiply oracle over a suite of generated inputs
// (ER, G500, tall-skinny, and degenerate shapes, in sorted and unsorted row
// order), via one canonical equivalence predicate.
//
// # Output contract
//
// The contract every algorithm must satisfy, and that Equivalent encodes:
//
//   - Rows are compacted: within a row, each column index appears at most
//     once (duplicate intermediate products are merged by the accumulator).
//   - Explicit zeros are permitted: a cancellation (e.g. 1·x + (-1)·x) may be
//     kept as an explicit 0 entry or dropped; both representations are
//     equivalent. Structural positions therefore may differ between
//     algorithms, but never the represented values.
//   - The Sorted flag is honest: when the output's Sorted field is true, each
//     row's column indices are strictly increasing.
//   - RowPtr is monotone, starts at 0, and ends at len(ColIdx) == len(Val);
//     every column index is within [0, Cols).
//
// The package is a plain library so both `go test` (including -race) and the
// native fuzz target in this package's tests can share the generators and
// the predicate.
package difftest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// Tol is the relative/absolute tolerance of the canonical predicate. The
// oracle and the kernels sum identical products in different orders, so only
// rounding noise separates them.
const Tol = 1e-9

// Algorithms is every concrete algorithm the harness cross-checks, plus
// AlgAuto (whose recipe dispatch is itself under test). The figure baselines
// have their own oracle test in internal/bench/baseline.
var Algorithms = []spgemm.Algorithm{
	spgemm.AlgAuto,
	spgemm.AlgHash,
	spgemm.AlgHeap,
}

// tinyStripes is the cut of the harness's striped Hash leg: finer than one
// stripe per worker, as a product past its ShardMemBudget is cut, which the
// default budget never reaches on suite-scale inputs.
const tinyStripes = 3

// cuts is the stripe count of each leg the harness runs alg in: its own cut
// (0) and, for Hash, the striped leg. stripeBudget turns a count into the
// Options.ShardMemBudget that asks for it.
func cuts(alg spgemm.Algorithm) []int {
	if alg == spgemm.AlgHash {
		return []int{0, tinyStripes}
	}
	return []int{0}
}

// stripeBudget is the ShardMemBudget that cuts a·b into n stripes: 0 (the
// default budget, the product's own cut) for n = 0, 1 (one stripe per row)
// for n at or past a's rows. Between, the count is n wherever the output
// bound, flop·(4 + sizeof V) bytes, is at least n·(n−1); the product still
// cuts at least one stripe per worker, and at W > 1 claims a finer cut where
// its flop asks for one (the one stripe rule), so n is a floor there.
func stripeBudget[V semiring.Value](a, b *matrix.CSRG[V], n int) int64 {
	if n <= 0 {
		return 0
	}
	if n >= a.Rows {
		return 1
	}
	var zero V
	flop, _ := matrix.Flop(a, b)
	est := flop * int64(4+unsafe.Sizeof(zero))
	return max(1, (est+int64(n)-1)/int64(n))
}

// Case is one input pair of the differential suite.
type Case struct {
	Name string
	A, B *matrix.CSR
}

// Cases generates the differential suite from rng: the paper's synthetic
// workload families at small scale plus the degenerate shapes that historically
// break SpGEMM implementations (empty matrices, zero dimensions, all-empty
// rows, duplicate-heavy COO inputs, exact cancellations) — each also in
// unsorted-row form where meaningful.
func Cases(rng *rand.Rand) []Case {
	er := gen.ER(6, 4, rng)
	g500 := gen.RMAT(6, 8, gen.G500Params, rng)
	ts := gen.TallSkinny(er, 3, rng)

	cases := []Case{
		{Name: "er-squared", A: er, B: er},
		{Name: "g500-squared", A: g500, B: g500},
		{Name: "er-tallskinny", A: er, B: ts},
		{Name: "er-unsortedB", A: er, B: gen.Unsorted(er, rng)},
		{Name: "er-unsortedAB", A: gen.Unsorted(er, rng), B: gen.Unsorted(er, rng)},
		{Name: "g500-unsortedB", A: g500, B: gen.Unsorted(g500, rng)},
	}

	// Degenerate shapes: 0×0, zero inner dimension, zero output columns, and
	// a matrix with no entries at all.
	empty0 := matrix.NewCOO(0, 0).ToCSR()
	cases = append(cases,
		Case{Name: "0x0", A: empty0, B: empty0},
		Case{Name: "inner-dim-0", A: matrix.NewCOO(4, 0).ToCSR(), B: matrix.NewCOO(0, 5).ToCSR()},
		Case{Name: "zero-cols-out", A: randomCSR(rng, 5, 4, 8), B: matrix.NewCOO(4, 0).ToCSR()},
		Case{Name: "all-empty-rows", A: matrix.NewCOO(8, 8).ToCSR(), B: randomCSR(rng, 8, 8, 12)},
		Case{Name: "empty-times-empty", A: matrix.NewCOO(6, 7).ToCSR(), B: matrix.NewCOO(7, 5).ToCSR()},
	)

	// Duplicate-merged input: COO with many repeated coordinates, so ToCSR
	// exercises the duplicate-merge path before the multiply does.
	dup := matrix.NewCOO(16, 16)
	for e := 0; e < 200; e++ {
		dup.Append(int32(rng.Intn(16)), int32(rng.Intn(16)), 1-rng.Float64())
	}
	dupCSR := dup.ToCSR()
	cases = append(cases,
		Case{Name: "duplicate-merged", A: dupCSR, B: dupCSR},
		Case{Name: "duplicate-merged-unsorted", A: dupCSR, B: gen.Unsorted(dupCSR, rng)},
	)

	// Exact cancellation: A = [1 -1] meeting equal rows of B produces a zero
	// that algorithms may keep explicitly or drop; both must pass.
	cancel := matrix.NewCOO(1, 2)
	cancel.Append(0, 0, 1)
	cancel.Append(0, 1, -1)
	ones := matrix.NewCOO(2, 3)
	for j := int32(0); j < 3; j++ {
		ones.Append(0, j, 1)
		ones.Append(1, j, 1)
	}
	cases = append(cases, Case{Name: "cancellation", A: cancel.ToCSR(), B: ones.ToCSR()})

	// Sparse rectangular with interleaved empty rows.
	cases = append(cases, Case{Name: "ragged-rect", A: randomCSR(rng, 31, 17, 40), B: randomCSR(rng, 17, 23, 30)})

	// The whole-row hash kernel's two row decisions, each on both sides. A
	// permutation matrix times ER has compression ratio 1: no output row
	// repeats a column, so every unsorted row is written by concatenation. A
	// thin ER square mixes such rows with rows that do repeat a column. Both
	// count symbolic with stamps (Cols <= flop); the wide product, whose
	// column space dwarfs its flop, keeps the hash table there.
	thin := gen.ER(7, 2, rng)
	cases = append(cases,
		Case{Name: "perm-times-er", A: matrix.Identity(er.Rows).PermuteRows(rng.Perm(er.Rows)), B: gen.Unsorted(er, rng)},
		Case{Name: "er-mixed-duplicate-rows", A: thin, B: gen.Unsorted(thin, rng)},
		Case{Name: "wide-hypersparse", A: randomCSR(rng, 16, 16, 24), B: randomCSR(rng, 16, 1<<14, 40)},
	)

	// A sorted SPA row folds through its occupancy bitmap where the bitmap,
	// ⌈Cols/64⌉ words, is no wider than the row: 10 words for 600 columns.
	// Group m of B's rows covers columns 10m … 10m+9 in three overlapping
	// rows, and A's rows 2m and 2m+1 take two of them each, for rows of 9
	// and 10 distinct columns — one short of the rule and on it — whose
	// 1,500 products keep the product on the SPA side at one worker.
	ruleA, ruleB := matrix.NewCOO(120, 180), matrix.NewCOO(180, 600)
	for m := 0; m < 60; m++ {
		for r, span := range [][2]int{{0, 5}, {3, 8}, {3, 9}} {
			for c := span[0]; c <= span[1]; c++ {
				ruleB.Append(int32(3*m+r), int32(10*m+c), rng.NormFloat64())
			}
		}
		ruleA.Append(int32(2*m), int32(3*m), rng.NormFloat64())
		ruleA.Append(int32(2*m), int32(3*m+1), rng.NormFloat64())
		ruleA.Append(int32(2*m+1), int32(3*m), rng.NormFloat64())
		ruleA.Append(int32(2*m+1), int32(3*m+2), rng.NormFloat64())
	}
	cases = append(cases, Case{Name: "bitmap-rule-sides", A: ruleA.ToCSR(), B: ruleB.ToCSR()})

	// The one-pass route: an unsorted Hash product in one stripe whose flop
	// bounds its output within 5 %. Row k of B holds columns k, k+1, k+2
	// (mod n), shuffled, and A permutes B's rows, so rows repeat no column —
	// but rows 5 and n-1 also take the next row of B, which repeats two
	// columns of the B row already written: a partial write, then the table
	// redo. Row n-1 is last, where an output of exactly nnz(C) entries has
	// room for its 4 entries but not its 6 products (CheckRecycled's exact
	// donation), and one of nnz(C)-1 has to grow (the small one).
	n := 64
	onePassA, onePassB := matrix.NewCOO(n, n), matrix.NewCOO(n, n)
	for i, p := range rng.Perm(n) {
		onePassA.Append(int32(i), int32(p), rng.NormFloat64())
		if i == 5 || i == n-1 {
			onePassA.Append(int32(i), int32((p+1)%n), rng.NormFloat64())
		}
		for d := 0; d < 3; d++ {
			onePassB.Append(int32(i), int32((i+d)%n), rng.NormFloat64())
		}
	}
	cases = append(cases, Case{Name: "one-pass-redo", A: onePassA.ToCSR(), B: gen.Unsorted(onePassB.ToCSR(), rng)})

	// Rows whose size the flop fixes, min(flop, Cols) at most 1: symbolic
	// sizes them by that bound, and numeric folds a row of one entry straight
	// into its slot. Into a one-column B every row with a product has one
	// entry, however many products fold into it — two that sum to 0 must still
	// leave a stored entry. Where A and B hold at most one entry per row, every
	// row has at most one product, over many columns.
	column := matrix.NewCOO(er.Cols, 1)
	for k := 0; k < er.Cols; k++ {
		if rng.Intn(3) != 0 {
			column.Append(int32(k), 0, rng.NormFloat64())
		}
	}
	onesColumn := matrix.NewCOO(2, 1)
	onesColumn.Append(0, 0, 1)
	onesColumn.Append(1, 0, 1)
	single := func(rows, cols int) *matrix.CSR {
		m := matrix.NewCOO(rows, cols)
		for i := 0; i < rows; i++ {
			if rng.Intn(4) != 0 {
				m.Append(int32(i), int32(rng.Intn(cols)), rng.NormFloat64())
			}
		}
		return m.ToCSR()
	}
	cases = append(cases,
		Case{Name: "er-times-column", A: er, B: column.ToCSR()},
		Case{Name: "cancellation-column", A: cancel.ToCSR(), B: onesColumn.ToCSR()},
		Case{Name: "flop-at-most-one", A: single(48, 40), B: gen.Unsorted(single(40, 36), rng)},
	)

	// B's word masks (4 words over 256 columns) pay on B's rows 0…31, runs
	// of 40 columns, that A's rows 0…47 take. Rows 48…63 take 3 or 4 of B's
	// one-column rows: flop 3 counts on the stamps, flop 4 on the masks.
	wordA, wordB := matrix.NewCOO(64, 64), matrix.NewCOO(64, 256)
	for k := 0; k < 32; k++ {
		for c := 0; c < 40; c++ {
			wordB.Append(int32(k), int32((7*k+c)%256), rng.NormFloat64())
		}
		wordB.Append(int32(32+k), int32(37*k%256), rng.NormFloat64())
	}
	for i := 0; i < 64; i++ {
		for _, k := range rng.Perm(32)[:6-(i/48)*(3-i%2)] {
			wordA.Append(int32(i), int32(k+32*(i/48)), rng.NormFloat64())
		}
	}
	cases = append(cases, Case{Name: "word-mask-rule-sides", A: wordA.ToCSR(), B: wordB.ToCSR()})

	return cases
}

// SpecialValueCases are products whose entries are signed zeros, infinities
// and NaNs — the values on which "first product stored" and "first product
// added to zero" part ways (0 + -0 is +0, Upsert leaves -0). They exist for
// the bit-identity legs (CheckPlan, CheckSharded, the masked leg of
// TestDifferentialRings) and the oracle leg, whose predicate matches
// non-finite values by class and sign; the non-float rings have nothing to
// say about them, so Cases does not include them.
func SpecialValueCases(rng *rand.Rand) []Case {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	// Built by hand: COO.ToCSR drops the explicit zeros these cases are about.
	dense := func(rows [][]float64) *matrix.CSR {
		m := &matrix.CSR{Rows: len(rows), Cols: len(rows[0]), RowPtr: make([]int64, 1, len(rows)+1), Sorted: true}
		for _, row := range rows {
			for j, v := range row {
				if !math.IsNaN(v) { // NaN marks a structural hole
					m.ColIdx = append(m.ColIdx, int32(j))
					m.Val = append(m.Val, v)
				}
			}
			m.RowPtr = append(m.RowPtr, int64(len(m.ColIdx)))
		}
		return m
	}
	hole := math.NaN()
	// C = [-0 +0 10; -0 -0 5; +0 -0 +0]: -0 alone, -0 + -0, -0 + +0, and
	// the cancellation 5 - 5.
	zeroA := dense([][]float64{{1, 1}, {1, hole}, {1, -1}})
	zeroB := dense([][]float64{{negZero, negZero, 5}, {negZero, 0, 5}})
	// C = [NaN Inf Inf; NaN NaN Inf; NaN -Inf -Inf]: Inf·0, Inf - Inf, and
	// sums that stay infinite.
	infA := dense([][]float64{{inf, 1}, {inf, -inf}, {-inf, hole}})
	infB := dense([][]float64{{0, 1, 1}, {1, 1, -1}})

	// The ER square's structure (rows that repeat columns, several workers'
	// worth) with every value drawn from the palette.
	palette := []float64{1, -1, 0, negZero, inf, -inf, 2.5, -2.5}
	er := gen.ER(6, 4, rng)
	special := matrix.MapValues(er, func(float64) float64 { return palette[rng.Intn(len(palette))] })
	return []Case{
		{Name: "signed-zero", A: zeroA, B: zeroB},
		{Name: "non-finite", A: infA, B: infB},
		{Name: "palette-er", A: special, B: special},
		{Name: "palette-er-unsortedB", A: special, B: gen.Unsorted(special, rng)},
	}
}

// randomCSR builds a rows×cols matrix with about nnz uniform entries
// (duplicates merged), leaving some rows empty by construction.
func randomCSR(rng *rand.Rand, rows, cols, nnz int) *matrix.CSR {
	coo := matrix.NewCOO(rows, cols)
	if rows > 0 && cols > 0 {
		for e := 0; e < nnz; e++ {
			coo.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

// Invariants verifies the structural output contract of a CSR result (see
// the package comment): consistent RowPtr, in-range columns, no duplicate
// columns within a row, and an honest Sorted flag.
func Invariants(c *matrix.CSR) error { return InvariantsG(c) }

// InvariantsG is Invariants over any value type — the contract is purely
// structural, so one implementation serves every CSRG instantiation.
func InvariantsG[V semiring.Value](c *matrix.CSRG[V]) error {
	if len(c.RowPtr) != c.Rows+1 {
		return fmt.Errorf("RowPtr length %d, want Rows+1 = %d", len(c.RowPtr), c.Rows+1)
	}
	if c.RowPtr[0] != 0 {
		return fmt.Errorf("RowPtr[0] = %d, want 0", c.RowPtr[0])
	}
	for i := 0; i < c.Rows; i++ {
		if c.RowPtr[i+1] < c.RowPtr[i] {
			return fmt.Errorf("RowPtr not monotone at row %d: %d > %d", i, c.RowPtr[i], c.RowPtr[i+1])
		}
	}
	if n := c.RowPtr[c.Rows]; int(n) != len(c.ColIdx) || int(n) != len(c.Val) {
		return fmt.Errorf("RowPtr end %d disagrees with len(ColIdx)=%d len(Val)=%d", n, len(c.ColIdx), len(c.Val))
	}
	seen := make(map[int32]struct{})
	for i := 0; i < c.Rows; i++ {
		lo, hi := c.RowPtr[i], c.RowPtr[i+1]
		clear(seen)
		for p := lo; p < hi; p++ {
			col := c.ColIdx[p]
			if col < 0 || int(col) >= c.Cols {
				return fmt.Errorf("row %d: column %d out of range [0,%d)", i, col, c.Cols)
			}
			if _, dup := seen[col]; dup {
				return fmt.Errorf("row %d: duplicate column %d (rows must be compacted)", i, col)
			}
			seen[col] = struct{}{}
			if c.Sorted && p > lo && c.ColIdx[p-1] >= col {
				return fmt.Errorf("row %d: Sorted=true but columns not strictly increasing at %d", i, p)
			}
		}
	}
	return nil
}

// Equivalent is the canonical equality predicate of the differential
// harness: got must satisfy the structural Invariants and represent the same
// matrix as want up to Tol, with explicit zeros and entry order ignored
// (matrix.EqualApprox canonicalizes both sides).
func Equivalent(got, want *matrix.CSR) error {
	if err := Invariants(got); err != nil {
		return err
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if !matrix.EqualApprox(got, want, Tol) {
		return fmt.Errorf("values differ from oracle beyond tol=%g", Tol)
	}
	return nil
}

// Check multiplies c.A·c.B with the given algorithm, in each of its cuts, and
// verifies the result against the NaiveMultiply oracle. Algorithms that
// require sorted input rows are expected to reject unsorted B with an error —
// a wrong result, or a sorted-only algorithm chosen by AlgAuto for unsorted
// input, is a failure.
func Check(c Case, alg spgemm.Algorithm, unsorted bool, workers int) error {
	want := matrix.NaiveMultiply(c.A, c.B)
	for _, stripes := range cuts(alg) {
		name := fmt.Sprintf("%s/%v unsorted=%v workers=%d stripes=%d", c.Name, alg, unsorted, workers, stripes)
		got, err := spgemm.Multiply(c.A, c.B, &spgemm.Options{Algorithm: alg, Unsorted: unsorted, Workers: workers, ShardMemBudget: stripeBudget(c.A, c.B, stripes)})
		if err != nil {
			if spgemm.RequiresSortedInput(alg) && !c.B.Sorted {
				return nil // documented rejection, not a defect
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		if spgemm.RequiresSortedInput(alg) && !c.B.Sorted {
			return fmt.Errorf("%s: accepted unsorted input instead of rejecting it", name)
		}
		if err := Equivalent(got, want); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// sameBits is value identity at the bit level: -0 is not +0, and a NaN is a
// NaN (its payload is the hardware's business, not the kernels').
func sameBits[V semiring.Value](x, y V) bool {
	switch fx := any(x).(type) {
	case float64:
		fy := any(y).(float64)
		return math.Float64bits(fx) == math.Float64bits(fy) || (fx != fx && fy != fy)
	case float32:
		fy := any(y).(float32)
		return math.Float32bits(fx) == math.Float32bits(fy) || (fx != fx && fy != fy)
	}
	return x == y
}

// identical reports whether two results are bit-identical: same shape, same
// Sorted flag, same row pointers, columns and value bits (sameBits). Stricter
// than Equivalent — used to pin down reusable-state paths (Context, Plan),
// which must reproduce the one-shot result exactly, not merely up to
// tolerance.
func identical[V semiring.Value](got, want *matrix.CSRG[V]) error {
	if got.Rows != want.Rows || got.Cols != want.Cols || got.Sorted != want.Sorted {
		return fmt.Errorf("shape/sortedness differ: %dx%d sorted=%v vs %dx%d sorted=%v",
			got.Rows, got.Cols, got.Sorted, want.Rows, want.Cols, want.Sorted)
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			return fmt.Errorf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	if len(got.ColIdx) != len(want.ColIdx) {
		return fmt.Errorf("nnz %d, want %d", len(got.ColIdx), len(want.ColIdx))
	}
	for i := range want.ColIdx {
		if got.ColIdx[i] != want.ColIdx[i] {
			return fmt.Errorf("ColIdx[%d] = %d, want %d", i, got.ColIdx[i], want.ColIdx[i])
		}
		if !sameBits(got.Val[i], want.Val[i]) {
			return fmt.Errorf("Val[%d] = %v, want %v", i, got.Val[i], want.Val[i])
		}
	}
	return nil
}

// CheckSharded pins the striped Hash product's identity contract against
// Hash's own cut over one case, cut by a budget into the given number of
// stripes (0 is the product's own count; see stripeBudget): sorted and
// unsorted output alike must match the oracle and be bit-identical to the
// unstriped product, row order included. The same comparison then repeats
// through an out-of-core SpillSink whose budget is far below the output size,
// so the spill/admission/mmap path at toy scale produces the very same
// bytes. spillDir hosts the temp spill files.
func CheckSharded(c Case, unsorted bool, workers, stripes int, spillDir string) error {
	hash, err := spgemm.Multiply(c.A, c.B, &spgemm.Options{Algorithm: spgemm.AlgHash, Unsorted: unsorted, Workers: workers})
	if err != nil {
		return fmt.Errorf("%s/hash unsorted=%v: %w", c.Name, unsorted, err)
	}
	want := matrix.NaiveMultiply(c.A, c.B)
	opt := &spgemm.Options{Algorithm: spgemm.AlgHash, Unsorted: unsorted, Workers: workers, ShardMemBudget: stripeBudget(c.A, c.B, stripes)}
	got, err := spgemm.Multiply(c.A, c.B, opt)
	if err != nil {
		return fmt.Errorf("%s/sharded unsorted=%v workers=%d stripes=%d: %w", c.Name, unsorted, workers, stripes, err)
	}
	if err := Equivalent(got, want); err != nil {
		return fmt.Errorf("%s/sharded unsorted=%v workers=%d stripes=%d: %w", c.Name, unsorted, workers, stripes, err)
	}
	if err := identical(got, hash); err != nil {
		return fmt.Errorf("%s/sharded unsorted=%v not bit-identical to unstriped hash (workers=%d stripes=%d): %w", c.Name, unsorted, workers, stripes, err)
	}

	// Out-of-core repeat: resident budget a quarter of the output entries.
	budget := got.NNZ() * 12 / 4
	if budget < 64 {
		budget = 64
	}
	sink := spgemm.NewSpillSink[float64](spillDir, budget)
	defer sink.Close()
	var st spgemm.ExecStats
	sopt := *opt
	sopt.ShardSink = sink
	sopt.Stats = &st
	spilled, err := spgemm.Multiply(c.A, c.B, &sopt)
	if err != nil {
		return fmt.Errorf("%s/sharded-spill unsorted=%v: %w", c.Name, unsorted, err)
	}
	if err := Equivalent(spilled, want); err != nil {
		return fmt.Errorf("%s/sharded-spill unsorted=%v: %w", c.Name, unsorted, err)
	}
	if err := identical(spilled, hash); err != nil {
		return fmt.Errorf("%s/sharded-spill unsorted=%v not bit-identical to hash: %w", c.Name, unsorted, err)
	}
	// The budget's count is a floor wherever it can cut that many (stripeBudget).
	flop, _ := matrix.Flop(c.A, c.B)
	if want := min(stripes, c.A.Rows); 12*flop >= int64(want*(want-1)) && len(st.Stripes) < want {
		return fmt.Errorf("%s/sharded-spill: %d stripes, want at least %d", c.Name, len(st.Stripes), want)
	}
	// Peak resident stripe bytes stay under budget — except when one stripe
	// alone exceeds it, where admission degrades to serial spilling and the
	// bound is that stripe's own footprint.
	allowed := budget
	for _, s := range st.Stripes {
		if !s.Spilled {
			return fmt.Errorf("%s/sharded-spill: stripe [%d,%d) not marked spilled", c.Name, s.Lo, s.Hi)
		}
		if need := s.Nnz * 12; need > allowed {
			allowed = need
		}
	}
	if peak := sink.PeakResident(); peak > allowed {
		return fmt.Errorf("%s/sharded-spill: peak resident %d over bound %d (budget %d)", c.Name, peak, allowed, budget)
	}
	return nil
}

// CheckContext is Check through a caller-supplied reusable Context: the
// result must satisfy the oracle predicate exactly like a one-shot call, and
// for deterministic (sorted-output) calls must be bit-identical to one.
// Passing the same ctx across many calls is the point — cached state from
// one case must never leak into the next.
func CheckContext(c Case, alg spgemm.Algorithm, unsorted bool, workers int, ctx *spgemm.Context) error {
	want := matrix.NaiveMultiply(c.A, c.B)
	for _, stripes := range cuts(alg) {
		name := fmt.Sprintf("%s/%v ctx unsorted=%v workers=%d stripes=%d", c.Name, alg, unsorted, workers, stripes)
		opt := spgemm.Options{Algorithm: alg, Unsorted: unsorted, Workers: workers, ShardMemBudget: stripeBudget(c.A, c.B, stripes), Context: ctx}
		got, err := spgemm.Multiply(c.A, c.B, &opt)
		if err != nil {
			if spgemm.RequiresSortedInput(alg) && !c.B.Sorted {
				return nil
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := Equivalent(got, want); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !unsorted {
			opt.Context = nil
			fresh, err := spgemm.Multiply(c.A, c.B, &opt)
			if err != nil {
				return fmt.Errorf("%s one-shot: %w", name, err)
			}
			if err := identical(got, fresh); err != nil {
				return fmt.Errorf("%s: ctx result not bit-identical to one-shot: %w", name, err)
			}
		}
	}
	return nil
}

// CheckPlan builds a Plan for c.A·c.B, executes it repeatedly (perturbing
// the values of A and B between rounds), and verifies every execution is
// bit-identical to a fresh Multiply with the same options — the plan-reuse
// soundness criterion. Four rounds: the first two run the plan's kernel (the
// second builds the replay map), the last two must stream through the map —
// for every algorithm but Heap, which must not — and ExecStats has to say so.
// It then perturbs B's structure and verifies the fingerprint still rejects
// the plan now that the map exists. An algorithm
// that requires sorted input rows is expected to refuse the Plan for an
// unsorted B, as Multiply refuses the product.
func CheckPlan(c Case, alg spgemm.Algorithm, unsorted bool, workers int) error {
	for _, stripes := range cuts(alg) {
		if err := checkPlan(c, alg, unsorted, workers, stripes); err != nil {
			return err
		}
	}
	return nil
}

func checkPlan(c Case, alg spgemm.Algorithm, unsorted bool, workers, stripes int) error {
	var st spgemm.ExecStats
	ctx := spgemm.NewContext()
	opt := &spgemm.Options{Algorithm: alg, Unsorted: unsorted, Workers: workers, ShardMemBudget: stripeBudget(c.A, c.B, stripes), Context: ctx, Stats: &st}
	plan, err := spgemm.NewPlan(c.A, c.B, opt)
	if spgemm.RequiresSortedInput(alg) && !c.B.Sorted {
		if err == nil {
			return fmt.Errorf("%s/%v plan: accepted unsorted input instead of rejecting it", c.Name, alg)
		}
		return nil // documented rejection, not a defect
	}
	if err != nil {
		return fmt.Errorf("%s/%v plan: %w", c.Name, alg, err)
	}
	for round := 0; round < 4; round++ {
		got, err := plan.ExecuteIn(ctx, &st)
		if err != nil {
			return fmt.Errorf("%s/%v execute round %d: %w", c.Name, alg, round, err)
		}
		tw := st.TotalWorker() // before the fresh Multiply below reuses st
		wantReplay := int64(0)
		if round >= 2 && st.Algorithm != spgemm.AlgHeap {
			wantReplay = tw.Flop
		}
		if tw.ReplayFlop != wantReplay || (wantReplay > 0 && tw.HashLookups+tw.StampMarks+tw.DirectFlop+tw.DenseFlop+tw.HeapPushes != 0) {
			return fmt.Errorf("%s/%v round %d: streamed %d of %d products (want %d), accumulator counters %+v",
				c.Name, st.Algorithm, round, tw.ReplayFlop, tw.Flop, wantReplay, tw)
		}
		fresh, err := spgemm.Multiply(c.A, c.B, opt)
		if err != nil {
			return fmt.Errorf("%s/%v fresh round %d: %w", c.Name, alg, round, err)
		}
		if err := identical(got, fresh); err != nil {
			return fmt.Errorf("%s/%v round %d plan result not bit-identical: %w", c.Name, alg, round, err)
		}
		want := matrix.NaiveMultiply(c.A, c.B)
		if err := Equivalent(got, want); err != nil {
			return fmt.Errorf("%s/%v round %d vs oracle: %w", c.Name, alg, round, err)
		}
		for i := range c.A.Val {
			c.A.Val[i] *= 1.25
		}
		for i := range c.B.Val {
			c.B.Val[i] *= 0.5
		}
	}
	// Structural perturbation must stale the plan.
	if len(c.B.ColIdx) > 0 && c.B.Cols > 1 {
		old := c.B.ColIdx[0]
		c.B.ColIdx[0] = (old + 1) % int32(c.B.Cols)
		if c.B.ColIdx[0] != old {
			if _, err := plan.ExecuteIn(ctx, nil); !errors.Is(err, spgemm.ErrPlanStale) {
				return fmt.Errorf("%s/%v: structure change not detected by plan fingerprint (err = %v)", c.Name, alg, err)
			}
		}
		c.B.ColIdx[0] = old
	}
	return nil
}
