package spgemm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/accum"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/testalloc"
)

// Tests for the whole-row hash kernel's row decisions (hashrow.go).
// Bit-identity of the decisions across rings, kernels and geometries is the
// differential suite's job (difftest.Cases carries inputs on both sides of
// each); the tests here pin which side an input takes.

// TestHashCounterInvariant: every product of an unmasked two-phase product
// through the whole-row passes is counted once by numeric (hash lookup, SPA
// fold or direct write) and once by symbolic (hash lookup or stamp mark) —
// unless its row is sized by its bound, min(flop, Cols) <= 1, which symbolic
// does not count — and the counters say which:
// HashLookups + StampMarks + DirectFlop + DenseFlop == 2·Flop − (flop of rows
// sized by their bound). A sorted request writes exactly its one-entry rows
// without an accumulator (folded into their slot). That holds however the
// rows are cut into stripes: one per worker by default, or by a budget that
// asks for one, one per worker or one per row (never fewer than one per
// worker; several stripes then accumulate into one worker's counters, on
// either side). On the one-pass route (an unsorted AlgHash product in one
// stripe at compression ratio about 1) every product is written once, so
// direct writes and SPA folds sum to the flop, the stamps test at most the
// flop, and no time goes to symbolic. The one-column product in its own cut
// (no budget) takes the one-column route (column.go): every product written
// directly, sized by its bound like the two-phase rows it replaces, and
// neither a partition nor a symbolic pass.
func TestHashCounterInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g500 := gen.RMAT(8, 8, gen.G500Params, rng)
	wideA := matrix.RandomWithDegree(64, 64, 4, rng)
	wideB := matrix.RandomWithDegree(64, 1<<16, 4, rng)
	// ER thin enough that most rows of its square repeat no column while a
	// few do: the concatenate/accumulate choice takes both sides.
	thin := gen.Unsorted(gen.ER(10, 3, rng), rng)
	// One column: every row with a product is sized by its bound and folded
	// into its one slot, however many products it has.
	oneCol := matrix.NewCOO(g500.Cols, 1)
	for k := 0; k < g500.Cols; k += 2 {
		oneCol.Append(int32(k), 0, rng.NormFloat64())
	}
	for _, in := range []struct {
		name       string
		a, b       *matrix.CSR
		wantStamps bool // dense side taken at one worker
		wantRepeat bool // some row of two or more entries repeats a column
		onePass    bool // compression ratio near 1 and Cols <= flop
	}{
		{"thin-er", thin, thin, true, true, true},
		{"g500", g500, g500, true, true, false},
		{"wide", wideA, wideB, false, false, false},
		{"one-column", g500, oneCol.ToCSR(), true, false, false},
	} {
		flop, flopRow := matrix.Flop(in.a, in.b)
		var sized int64
		for _, f := range flopRow {
			if capBound(f, in.b.Cols) <= 1 {
				sized += f
			}
		}
		for _, unsorted := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				for _, geom := range []struct {
					name    string
					stripes int
				}{
					{"hash", 0},
					{"stripes-1", 1},
					{"stripes-workers", workers},
					{"stripes-rows", in.a.Rows},
				} {
					name := fmt.Sprintf("%s/%s/unsorted=%v/workers=%d", in.name, geom.name, unsorted, workers)
					ctx := NewContext()
					var st ExecStats
					opt := &Options{Algorithm: AlgHash, ShardMemBudget: stripeBudget(in.a, in.b, geom.stripes), Unsorted: unsorted, Workers: workers, Stats: &st, Context: ctx}
					c, err := Multiply(in.a, in.b, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var oneEntry int64 // flop of the rows with one entry
					for i, f := range flopRow {
						if c.RowPtr[i+1]-c.RowPtr[i] == 1 {
							oneEntry += f
						}
					}
					tot := st.TotalWorker()
					onePass := in.onePass && unsorted && max(geom.stripes, workers) == 1
					column := in.b.Cols <= 1 && geom.stripes == 0
					if (st.Phases[PhaseSymbolic] == 0) != (onePass || column) {
						t.Errorf("%s: symbolic took %v, want none iff on the one-pass or the one-column route (%v, %v)", name, st.Phases[PhaseSymbolic], onePass, column)
					}
					if column && (st.Phases[PhasePartition] != 0 || len(st.Stripes) != 0 || tot.DirectFlop != flop) {
						t.Errorf("%s: one-column route: partition %v, %d stripes, direct %d of flop %d; want none, none, all",
							name, st.Phases[PhasePartition], len(st.Stripes), tot.DirectFlop, flop)
					}
					if onePass {
						// Drawn at the flop, uninitialized: nothing past nnz(C) is reachable.
						if cap(c.ColIdx) != len(c.ColIdx) || cap(c.Val) != len(c.Val) {
							t.Errorf("%s: one pass: cap %d/%d past len %d", name, cap(c.ColIdx), cap(c.Val), len(c.ColIdx))
						}
						if tot.DirectFlop+tot.DenseFlop != flop || tot.HashLookups != 0 || tot.StampMarks > flop {
							t.Errorf("%s: one pass: direct %d + dense %d, want flop %d; lookups %d, want 0; marks %d, want at most flop",
								name, tot.DirectFlop, tot.DenseFlop, flop, tot.HashLookups, tot.StampMarks)
						}
					} else if got := tot.HashLookups + tot.StampMarks + tot.DirectFlop + tot.DenseFlop; got != 2*flop-sized {
						t.Errorf("%s: lookups %d + marks %d + direct %d + dense %d = %d, want 2·flop − sized = %d",
							name, tot.HashLookups, tot.StampMarks, tot.DirectFlop, tot.DenseFlop, got, 2*flop-sized)
					}
					if !unsorted && tot.DirectFlop != oneEntry {
						t.Errorf("%s: sorted request wrote %d products without an accumulator, want the %d of its one-entry rows",
							name, tot.DirectFlop, oneEntry)
					}
					// Which side the phases take depends on the stripe's flop;
					// one stripe over all rows is the case the table states. The
					// one-pass route stamps a repeating row only up to its repeat.
					if workers == 1 && geom.stripes <= 1 {
						if (tot.StampMarks == flop-sized || onePass && tot.StampMarks > 0) != in.wantStamps || (tot.HashLookups > 0) == in.wantStamps {
							t.Errorf("%s: flop %d sized %d marks %d lookups %d: wrong symbolic side taken",
								name, flop, sized, tot.StampMarks, tot.HashLookups)
						}
						if unsorted && (tot.DirectFlop == 0 || (tot.DirectFlop < flop) != in.wantRepeat || (tot.DenseFlop > 0) != (in.wantStamps && in.wantRepeat)) {
							t.Errorf("%s: flop %d direct %d dense %d: wrong numeric side taken", name, flop, tot.DirectFlop, tot.DenseFlop)
						}
					}
					// A Plan, which keeps two phases, splits the same count between
					// its build and its replay: its build stamps every product the
					// one-shot symbolic stamped, or the one-pass route tested.
					var build, exec ExecStats
					popt := *opt
					popt.Stats = &build
					plan, err := NewPlan(in.a, in.b, &popt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if _, err := plan.ExecuteIn(ctx, &exec); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					bt, et := build.TotalWorker(), exec.TotalWorker()
					if bt.HashLookups+bt.StampMarks != flop-sized || et.HashLookups+et.DirectFlop+et.DenseFlop != flop || bt.StampMarks < tot.StampMarks ||
						!onePass && bt.StampMarks != tot.StampMarks || et.DirectFlop != tot.DirectFlop || et.DenseFlop != tot.DenseFlop {
						t.Errorf("%s: plan build %+v / replay %+v do not split %+v", name, bt, et, tot)
					}
				}
			}
		}
	}
}

// TestHashRepeatedColumnInBRow: a non-canonical B that stores one column
// twice in a row makes flop exceed the row's distinct columns, so the row
// must take an accumulator (where the two products fold) and not
// concatenation — the SPA here (Cols = flop), the table for a B padded with
// empty columns past the rule. Row 2's one product sizes it without a count.
func TestHashRepeatedColumnInBRow(t *testing.T) {
	a := matrix.Identity(3)
	for _, cols := range []int{6, 7} {
		b := &matrix.CSR{Rows: 3, Cols: cols, RowPtr: []int64{0, 3, 5, 6},
			ColIdx: []int32{5, 2, 5, 1, 4, 3}, Val: []float64{1, 2, 4, 8, 16, 32}}
		want := matrix.NaiveMultiply(a, b)
		var st ExecStats
		got, err := Multiply(a, b, &Options{Algorithm: AlgHash, Unsorted: true, Workers: 1, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.EqualApprox(got, want, 0) {
			t.Errorf("cols=%d: product differs from NaiveMultiply", cols)
		}
		// Row 0 (flop 3, two distinct columns) through the accumulator,
		// row 1 (flop 2) by concatenation and row 2 (flop 1) into its one
		// slot; symbolic counts rows 0 and 1 on the same side of the rule
		// (stamps, or 5 table lookups): 2·6 − 1 counts in all.
		dense, lookups := int64(3), int64(0)
		if cols > 6 {
			dense, lookups = 0, 5+3
		}
		tot := st.TotalWorker()
		if tot.DirectFlop != 3 || tot.DenseFlop != dense || tot.HashLookups != lookups {
			t.Errorf("cols=%d: direct %d dense %d lookups %d, want 3, %d and %d", cols, tot.DirectFlop, tot.DenseFlop, tot.HashLookups, dense, lookups)
		}
		if got := tot.HashLookups + tot.StampMarks + tot.DirectFlop + tot.DenseFlop; got != 2*6-1 {
			t.Errorf("cols=%d: %d counts, want 2·flop − 1 = 11", cols, got)
		}
	}
}

// TestHashHypersparseKeepsHashSymbolic is the guard on the rule's other
// side: with 2^24 columns and a few thousand products no worker may touch an
// O(Cols) array, so symbolic stays on the hash table and the call allocates
// far less than the 64 MB a stamp array would be.
func TestHashHypersparseKeepsHashSymbolic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := matrix.RandomWithDegree(256, 256, 4, rng)
	b := matrix.RandomWithDegree(256, 1<<24, 4, rng)
	want := matrix.NaiveMultiply(a, b)
	var st ExecStats
	opt := &Options{Algorithm: AlgHash, Unsorted: true, Workers: 2, Stats: &st}
	var got *matrix.CSR
	var err error
	d := testalloc.Bytes(func() { got, err = Multiply(a, b, opt) })
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(got, want, 1e-12) {
		t.Errorf("product differs from NaiveMultiply")
	}
	if marks := st.TotalWorker().StampMarks; marks != 0 {
		t.Errorf("%d stamp marks on a product with Cols >> flop", marks)
	}
	if d > 1<<20 {
		t.Errorf("allocated %d B, want under 1 MB", d)
	}
}

// TestContextStampsAcrossColumnSpaces: one Context serves products whose
// column spaces grow and shrink; the cached stamp sets (and the stale stamps
// earlier, wider products left in them) must never change a result.
func TestContextStampsAcrossColumnSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ctx := NewContext()
	for round, cols := range []int{64, 2048, 128, 1024, 32, 2048} {
		a := matrix.RandomWithDegree(96, 80, 6, rng)
		b := matrix.RandomWithDegree(80, cols, 12, rng)
		for _, unsorted := range []bool{false, true} {
			want, err := Multiply(a, b, &Options{Algorithm: AlgHash, Workers: 2, Unsorted: unsorted})
			if err != nil {
				t.Fatal(err)
			}
			var st ExecStats
			got, err := Multiply(a, b, &Options{Algorithm: AlgHash, Workers: 2, Unsorted: unsorted, Context: ctx, Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			requireSameCSR(t, want, got)
			if st.TotalWorker().StampMarks == 0 {
				t.Fatalf("round %d: %d columns did not count with stamps", round, cols)
			}
		}
	}
}

// TestPlanReplayMatchesMultiplyOnERUnsorted: a Plan's replay takes the same
// per-row decisions as the one-shot kernel and reproduces it bit for bit, on
// the benchmark's CR = 1 shape.
func TestPlanReplayMatchesMultiplyOnERUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := gen.Unsorted(gen.ER(12, 8, rng), rng)
	opt := &Options{Algorithm: AlgHash, Unsorted: true, Workers: 3}
	want, err := Multiply(a, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(a, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	var st ExecStats
	got, err := plan.ExecuteIn(NewContext(), &st)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCSR(t, want, got)
	if st.TotalWorker().DirectFlop == 0 {
		t.Error("replay wrote no row directly on a CR = 1 product")
	}
}

// ruleInput is one product of the sweeps across the Cols <= flop rule.
type ruleInput struct {
	name string
	a, b *matrix.CSR
}

// ruleInputs are the products BenchmarkSymbolic and BenchmarkNumeric sweep
// across the Cols <= flop rule (denseRule): the BENCHMARK.json workloads all
// sit on its dense side, so these are where its other side and its boundary
// are measured (tables in EXPERIMENTS.md). The last four sit at flop/Cols 1
// to 9.
func ruleInputs() []ruleInput {
	rng := rand.New(rand.NewSource(13))
	square := func(name string, m *matrix.CSR) ruleInput { return ruleInput{name, m, m} }
	hyperA := gen.ER(12, 8, rng)
	return []ruleInput{
		square("ER/cols=2^9", gen.ER(9, 8, rng)),
		square("ER/cols=2^11", gen.ER(11, 8, rng)),
		square("ER/cols=2^15", gen.ER(15, 8, rng)),
		square("ER/cols=2^18", gen.ER(18, 8, rng)),
		square("ER/cols=2^20", gen.ER(20, 4, rng)),
		square("G500/cols=2^9", gen.RMAT(9, 16, gen.G500Params, rng)),
		square("G500/cols=2^11", gen.RMAT(11, 16, gen.G500Params, rng)),
		square("G500/cols=2^15", gen.RMAT(15, 4, gen.G500Params, rng)),
		square("G500/cols=2^18", gen.RMAT(18, 1, gen.G500Params, rng)),
		square("G500/cols=2^20", gen.RMAT(20, 1, gen.G500Params, rng)),
		// Past the rule: 2^12 rows of 64 products each against 2^24 columns.
		{"hypersparse/cols=2^24", hyperA, matrix.RandomWithDegree(hyperA.Cols, 1<<24, 8, rng)},
		square("ER/cols=2^16/ef=1", gen.ER(16, 1, rng)),
		square("ER/cols=2^16/ef=2", gen.ER(16, 2, rng)),
		square("ER/cols=2^16/ef=3", gen.ER(16, 3, rng)),
		square("ER/cols=2^17/ef=1", gen.ER(17, 1, rng)),
	}
}

// BenchmarkSymbolic times one worker's symbolic pass over a whole product
// with each of rowCounter's accumulators forced, on both sides of the rule:
// the table, the stamps, and the stamps beside B's word masks, which count
// every row whose flop reaches the bitmap's words (countWords). "rule" in the
// name is what inspect would pick.
func BenchmarkSymbolic(b *testing.B) {
	for _, in := range ruleInputs() {
		a, bm := in.a, in.b
		_, flopRow := matrix.Flop(a, bm)
		flop, max := rangeFlopMax(flopRow, 0, a.Rows)
		rule := "hash"
		if denseRule(bm.Cols, flop) {
			rule = "stamps"
			ctx := NewContext()
			if ctx.wordMasks(a, bm, oneStripe(flopRow)) != nil {
				rule = "masks"
			}
		}
		words := int64(bm.Cols+63) >> 6
		for _, kind := range []string{"hash", "stamps", "masks"} {
			b.Run(fmt.Sprintf("%s/flop=%d/rule=%s/%s", in.name, flop, rule, kind), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					// A fresh accumulator per pass, as a one-shot Multiply
					// pays for it; the stamps' O(Cols) zeroing and the masks'
					// build are in the time.
					rc := rowCounter[float64]{table: accum.NewHashTable(capBound(max, bm.Cols))}
					switch kind {
					case "stamps":
						rc = rowCounter[float64]{stamps: accum.NewStampSet(bm.Cols)}
					case "masks":
						mc := NewContext()
						mc.buildMasks(bm.RowPtr, bm.ColIdx, 1, 1)
						rc = rowCounter[float64]{stamps: accum.NewStampSet(bm.Cols), masks: &mc.masks, occ: make([]uint64, words)}
					}
					var nnz int64
					for i := 0; i < a.Rows; i++ {
						if rc.occ != nil && words <= flopRow[i] {
							nnz += rc.countWords(a, bm.RowPtr, i)
						} else {
							nnz += rc.count(a, bm, i)
						}
					}
					if nnz == 0 {
						b.Fatal("empty product")
					}
				}
			})
		}
	}
}

// BenchmarkNumeric is BenchmarkSymbolic's twin for the numeric pass: one
// worker's sorted numeric pass over a whole product (every row through the
// accumulator, none by concatenation) with the table or the SPA forced, into
// an output the symbolic pass sized outside the timer. On the SPA a row whose
// bitmap is no wider than it folds through the bitmap, setting a bit per
// product ("spa") or ORing B's word masks, built outside the timer as symbolic
// builds them, one per run ("masks"). "rule" in the name is what execute
// would pick.
func BenchmarkNumeric(b *testing.B) {
	for _, in := range ruleInputs() {
		b.Run(in.name, func(b *testing.B) {
			a, bm := in.a, in.b
			_, flopRow := matrix.Flop(a, bm)
			flop, max := rangeFlopMax(flopRow, 0, a.Rows)
			ctx := NewContext()
			ctx.ensureWorkers(1)
			rc := ctx.rowCounter(0, bm.Cols, denseRule(bm.Cols, flop), capBound(max, bm.Cols), nil)
			rowPtr := make([]int64, a.Rows+1)
			for i := 0; i < a.Rows; i++ {
				rowPtr[i+1] = rowPtr[i] + rc.count(a, bm, i)
			}
			cols, vals := make([]int32, rowPtr[a.Rows]), make([]float64, rowPtr[a.Rows])
			rule := "table"
			if denseRule(bm.Cols, flop) {
				rule = "spa"
				if ctx.wordMasks(a, bm, oneStripe(flopRow)) != nil {
					rule = "masks"
				}
			}
			ctx.buildMasks(bm.RowPtr, bm.ColIdx, 1, 1)
			for _, kind := range []string{"table", "spa", "masks"} {
				b.Run(fmt.Sprintf("flop=%d/rule=%s/%s", flop, rule, kind), func(b *testing.B) {
					for n := 0; n < b.N; n++ {
						// A fresh accumulator per pass, as a one-shot Multiply
						// pays for it; the SPA's O(Cols) zeroing is in the time.
						h := hashNumeric[float64, semiring.PlusTimesF64]{body: bodiesFor[float64](semiring.PlusTimesF64{}), a: a, b: bm, sorted: true}
						switch kind {
						case "table":
							h.table = accum.NewHashTable(capBound(max, bm.Cols))
						case "masks":
							h.masks = &ctx.masks
							fallthrough
						default:
							h.spa = accum.NewSPA(bm.Cols)
						}
						h.bind(cols, vals)
						h.rows(flopRow, rowPtr, 0, a.Rows, 0)
					}
				})
			}
		})
	}
}

// TestMaskedRowCut: the pattern count stops each sorted B row at the first
// column past its mask row's largest, and still equals the pattern oracle —
// on a B whose rows run past the mask rows' ends, the same B shuffled and
// flagged unsorted (no cut), a mask row that repeats its largest column, one
// shuffled so its largest is not last, empty mask rows, and an A of fewer
// rows than the geometry cuts stripes, over int64 values (a stored 0 among
// them) and non-negative float64 ones (the value sets once drawn for the
// integer plus-times and min-plus rings).
func TestMaskedRowCut(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := matrix.RandomWithDegree(40, 32, 4, rng)
	b := matrix.RandomWithDegree(32, 48, 12, rng)
	few := matrix.RandomWithDegree(5, 32, 4, rng)
	shuffled := b.ShuffleRowEntries(rng)
	shuffled.Sorted = false
	for _, ops := range []struct {
		name string
		a, b *matrix.CSR
	}{
		{"sortedB", a, b}, {"unsortedB", a, shuffled}, {"few-rows", few, b}, {"few-rows/unsortedB", few, shuffled},
	} {
		i64 := func(v float64) int64 { return int64(math.Round(3 * v)) }
		checkMaskedCut(t, ops.name+"/i64", matrix.MapValues(ops.a, i64), matrix.MapValues(ops.b, i64), rng)
		checkMaskedCut(t, ops.name+"/minplus", matrix.MapValues(ops.a, math.Abs), matrix.MapValues(ops.b, math.Abs), rng)
	}
	// Values never count: row 0's products all miss its mask row, row 1's
	// two hits cancel, 2.5 + (-2.5), and row 2's one hit is 1·(-0), so the
	// row sums of (A·B).*M are all zero, yet the count is 3. On B's own
	// columns, padded past the flop, and past one 64-column word.
	za := &matrix.CSR{Rows: 3, Cols: 3, RowPtr: []int64{0, 1, 3, 4}, ColIdx: []int32{0, 0, 1, 2}, Val: []float64{1, 1, 1, 1}, Sorted: true}
	zb := &matrix.CSR{Rows: 3, Cols: 4, RowPtr: []int64{0, 2, 3, 4}, ColIdx: []int32{0, 1, 0, 3}, Val: []float64{2.5, 1, -2.5, negZero}, Sorted: true}
	zm := &matrix.CSR{Rows: 3, Cols: 4, RowPtr: []int64{0, 2, 3, 4}, ColIdx: []int32{2, 3, 0, 3}, Val: make([]float64, 4), Sorted: true}
	for _, cols := range []int{4, 7, 130} {
		b, mask := *zb, *zm
		b.Cols, mask.Cols = cols, cols
		for _, workers := range []int{1, 2} {
			got, err := MaskedCount(za, &b, &mask, &Options{Algorithm: AlgHash, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got != 3 {
				t.Errorf("misses/cancel cols=%d W=%d: counted %d, want 3", cols, workers, got)
			}
		}
	}
}

// checkMaskedCut runs the pattern count of a·b under TestMaskedRowCut's
// masks, built from the product: row i's mask is the first half of its
// product row's columns (at least one), so its largest column is reached and
// B's sorted rows run past it; every fifth mask row is empty. Unsorted must
// change nothing.
func checkMaskedCut[V semiring.Value](t *testing.T, name string, a, b *matrix.CSRG[V], rng *rand.Rand) {
	t.Helper()
	full := matrix.NaiveMultiplyRing(semiring.OrAndBool{}, patternOf(a), patternOf(b))
	prefix := &matrix.CSRG[V]{Rows: full.Rows, Cols: full.Cols, RowPtr: make([]int64, full.Rows+1), Sorted: true}
	repeated := &matrix.CSRG[V]{Rows: full.Rows, Cols: full.Cols, RowPtr: make([]int64, full.Rows+1), Sorted: true}
	maxFirst := &matrix.CSRG[V]{Rows: full.Rows, Cols: full.Cols, RowPtr: make([]int64, full.Rows+1)}
	for i := 0; i < full.Rows; i++ {
		if cols, _ := full.Row(i); i%5 != 4 && len(cols) > 0 {
			half := cols[:(len(cols)+1)/2]
			prefix.ColIdx = append(prefix.ColIdx, half...)
			repeated.ColIdx = append(append(repeated.ColIdx, half...), half[len(half)-1])
			row := append([]int32(nil), half...)
			rng.Shuffle(len(row), func(x, y int) { row[x], row[y] = row[y], row[x] })
			for x := range row { // the largest first, so it is not last
				if row[x] == half[len(half)-1] {
					row[0], row[x] = row[x], row[0]
				}
			}
			maxFirst.ColIdx = append(maxFirst.ColIdx, row...)
		}
		prefix.RowPtr[i+1], repeated.RowPtr[i+1], maxFirst.RowPtr[i+1] = int64(len(prefix.ColIdx)), int64(len(repeated.ColIdx)), int64(len(maxFirst.ColIdx))
	}
	for _, m := range []*matrix.CSRG[V]{prefix, repeated, maxFirst} {
		m.Val = make([]V, len(m.ColIdx))
	}
	for mname, mask := range map[string]*matrix.CSRG[V]{"prefix": prefix, "repeated-last": repeated, "max-first": maxFirst} {
		want := patternCount(a, b, mask)
		for _, workers := range []int{1, 2, 3} {
			for _, unsorted := range []bool{false, true} {
				got, err := MaskedCount(a, b, mask, &OptionsG[V]{Algorithm: AlgHash, Workers: workers, Unsorted: unsorted})
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("%s/mask=%s/W=%d/unsorted=%v", name, mname, workers, unsorted), func(t *testing.T) {
					if got != want {
						t.Fatalf("counted %d, want %d", got, want)
					}
				})
			}
		}
	}
}

// patternCount is MaskedCount's oracle, a triple loop over the patterns
// that shares no code with the kernel: per entry k of A's row i and entry j
// of B's row k, one where row i of mask holds j.
func patternCount[V semiring.Value](a, b, mask *matrix.CSRG[V]) int64 {
	var n int64
	for i := 0; i < a.Rows; i++ {
		mcols, _ := mask.Row(i)
		acols, _ := a.Row(i)
		for _, k := range acols {
			bcols, _ := b.Row(int(k))
			for _, j := range bcols {
				if slices.Contains(mcols, j) {
					n++
				}
			}
		}
	}
	return n
}

// patternOf is m's pattern over the bool ring: every stored entry true.
func patternOf[V semiring.Value](m *matrix.CSRG[V]) *matrix.CSRG[bool] {
	return matrix.MapValues(m, func(V) bool { return true })
}

// TestWordMasksBuild: the builder lists each B row's maximal stretches of
// columns in one 64-column word, at the row's own offset — across word
// boundaries, in an unsorted row that meets a word again, in empty rows,
// with Cols not a multiple of 64 and with Cols <= 64 — and or sets exactly a
// row's columns.
func TestWordMasksBuild(t *testing.T) {
	type run struct {
		word int32
		bits uint64
	}
	for _, tc := range []struct {
		name string
		cols int
		rows [][]int32
		want [][]run
	}{
		{"word-boundaries", 200, [][]int32{{62, 63, 64, 65, 127, 128, 199}},
			[][]run{{{0, 3 << 62}, {1, 3 | 1<<63}, {2, 1}, {3, 1 << 7}}}},
		{"unsorted-recurring", 130, [][]int32{{3, 70, 5, 129, 64}, {65, 1}},
			[][]run{{{0, 1 << 3}, {1, 1 << 6}, {0, 1 << 5}, {2, 1 << 1}, {1, 1}}, {{1, 1 << 1}, {0, 1 << 1}}}},
		{"empty-rows", 100, [][]int32{{}, {1, 2}, {}, {}},
			[][]run{{}, {{0, 6}}, {}, {}}},
		{"narrow", 10, [][]int32{{0, 9}, {5}, {}},
			[][]run{{{0, 1 | 1<<9}}, {{0, 1 << 5}}, {}}},
	} {
		rowPtr := []int64{0}
		var colIdx []int32
		for _, row := range tc.rows {
			colIdx = append(colIdx, row...)
			rowPtr = append(rowPtr, int64(len(colIdx)))
		}
		// Stale contents from a wider pattern must not show through.
		ctx := NewContext()
		ctx.masks = wordMasks{word: slices.Repeat([]int32{7}, 64), bits: slices.Repeat([]uint64{1 << 40}, 64), runs: slices.Repeat([]int32{9}, 64)}
		ctx.buildMasks(rowPtr, colIdx, 1, 1)
		m := &ctx.masks
		if len(m.runs) != len(tc.rows) {
			t.Fatalf("%s: %d rows of runs, want %d", tc.name, len(m.runs), len(tc.rows))
		}
		for k, want := range tc.want {
			got := make([]run, m.runs[k])
			for r := range got {
				got[r] = run{m.word[rowPtr[k]+int64(r)], m.bits[rowPtr[k]+int64(r)]}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: row %d runs %x, want %x", tc.name, k, got, want)
			}
			occ := make([]uint64, (tc.cols+63)/64)
			m.or(occ, rowPtr[k], int32(k))
			wantOcc := make([]uint64, len(occ))
			for _, col := range tc.rows[k] {
				wantOcc[col>>6] |= 1 << (col & 63)
			}
			if !slices.Equal(occ, wantOcc) {
				t.Errorf("%s: row %d or sets %x, want %x", tc.name, k, occ, wantOcc)
			}
		}
	}
}

// TestWordMasksParallel: masks built on two workers, over stripes cut finer
// than B's rows, are the one-worker build slot for slot — on a sorted G500 B,
// on the same B with its rows shuffled, and on a pattern whose unsorted rows
// meet a word again, between empty rows at both ends and in the middle.
func TestWordMasksParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g500 := gen.RMAT(9, 16, gen.G500Params, rng)
	recur := matrix.NewCOO(9, 200)
	for _, k := range []int{1, 2, 4, 5, 6} {
		for _, col := range []int32{3, 70, 5, 129, 64, 199, 66, 1} {
			recur.Append(int32(k), (col+int32(k))%200, 1)
		}
	}
	for _, b := range []*matrix.CSR{g500, gen.Unsorted(g500, rng), gen.Unsorted(recur.ToCSR(), rng)} {
		// Both start from the same stale buffers, so a slot either build
		// misses shows.
		stale := func() wordMasks {
			n := len(b.ColIdx) + 1
			return wordMasks{word: slices.Repeat([]int32{-3}, n), bits: slices.Repeat([]uint64{5}, n), runs: slices.Repeat([]int32{-3}, b.Rows+1)}
		}
		one, two := NewContext(), NewContext()
		one.masks = stale()
		one.buildMasks(b.RowPtr, b.ColIdx, 1, 1)
		for _, stripes := range []int{2, 7, b.Rows + 3} {
			two.masks = stale()
			two.buildMasks(b.RowPtr, b.ColIdx, 2, stripes)
			if !slices.Equal(two.masks.word, one.masks.word) || !slices.Equal(two.masks.bits, one.masks.bits) || !slices.Equal(two.masks.runs, one.masks.runs) {
				t.Errorf("%d×%d, %d stripes on 2 workers: masks differ from the 1-worker build", b.Rows, b.Cols, stripes)
			}
		}
	}
}

// oneStripe is the inspection ContextG.wordMasks reads, for a product of
// flopRow's rows in one stripe on one worker on the SPA side.
func oneStripe(flopRow []int64) *inspection[float64] {
	return &inspection[float64]{flopRow: flopRow, dense: true, workers: 1, offsets: []int{0, len(flopRow)}}
}

// TestWordMasksCount: where the gate builds masks (a G500 square), a row
// counted on them has the size the stamps count, row by row; where B does
// not compress (an ER square at 8 entries per row over 32 words) the gate
// builds none.
func TestWordMasksCount(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g500, er := gen.RMAT(9, 16, gen.G500Params, rng), gen.ER(11, 8, rng)
	ctx := NewContext()
	ctx.ensureWorkers(1)
	_, flopRow := matrix.Flop(er, er)
	if m := ctx.wordMasks(er, er, oneStripe(flopRow)); m != nil {
		t.Error("masks built for an ER square whose rows do not compress")
	}
	_, flopRow = matrix.Flop(g500, g500)
	m := ctx.wordMasks(g500, g500, oneStripe(flopRow))
	if m == nil {
		t.Fatal("no masks for a G500 square")
	}
	rc := ctx.rowCounter(0, g500.Cols, true, 0, m)
	for i, f := range flopRow {
		if f == 0 {
			continue
		}
		if got, want := rc.countWords(g500, g500.RowPtr, i), rc.count(g500, g500, i); got != want {
			t.Fatalf("row %d (flop %d): %d on the masks, %d on the stamps", i, f, got, want)
		}
	}
}

// TestWordMasksNotStale: a Context rebuilds B's masks on every call, so a
// pattern written into the same *CSR between two products cannot leak the
// first one's masks into the second; and a Plan built on them, executed
// three times, is bit-identical to the one-shot product.
func TestWordMasksNotStale(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	a := gen.RMAT(9, 16, gen.G500Params, rng)
	b, next := a.Clone(), gen.RMAT(9, 16, gen.G500Params, rng)
	for _, workers := range []int{1, 2} {
		ctx := NewContext()
		opt := &Options{Algorithm: AlgHash, Workers: workers, Context: ctx}
		if _, err := Multiply(a, b, opt); err != nil {
			t.Fatal(err)
		}
		if ctx.in.masks == nil {
			t.Fatal("the first product built no masks")
		}
		saved := *b
		*b = *next.Clone()
		got, err := Multiply(a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Multiply(a, b, &Options{Algorithm: AlgHash, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		requireSameCSR(t, want, got)
		*b = saved

		want, err = Multiply(a, b, &Options{Algorithm: AlgHash, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			got, err := plan.ExecuteIn(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCSR(t, want, got)
		}
	}
}

// TestStripeRule: at W > 1 an unmasked Hash product cuts claimStripes per
// worker, at most one per minStripeFlop, and never fewer than W; and the SPA
// goes by the flop a worker serves, so stripes finer than Cols keep it.
func TestStripeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const w = 2
	g500 := gen.RMAT(10, 16, gen.G500Params, rng)
	small := gen.ER(6, 4, rng)
	// 2 × 4 products per row over 8192 columns: flop 65,536, 16 stripes of
	// 4,096 products each, below Cols; 32,768 per worker, above it.
	wideA := matrix.RandomWithDegree(8192, 8192, 2, rng)
	wideB := matrix.RandomWithDegree(8192, 8192, 4, rng)
	for _, tc := range []struct {
		name    string
		a, b    *matrix.CSR
		stripes func(flop int64) int
	}{
		{"g500", g500, g500, func(flop int64) int { return int(min(claimStripes*w, flop/minStripeFlop)) }},
		{"small", small, small, func(int64) int { return w }},
		{"wide", wideA, wideB, func(flop int64) int { return int(flop / minStripeFlop) }},
	} {
		var st ExecStats
		if _, err := Multiply(tc.a, tc.b, &Options{Algorithm: AlgHash, Workers: w, Stats: &st}); err != nil {
			t.Fatal(err)
		}
		tw := st.TotalWorker()
		if want := tc.stripes(tw.Flop); len(st.Stripes) != want {
			t.Errorf("%s: %d stripes at flop %d, want %d", tc.name, len(st.Stripes), tw.Flop, want)
		}
		if tc.name == "small" && tw.Flop >= w*minStripeFlop {
			t.Errorf("small: flop %d is not under W·minStripeFlop", tw.Flop)
		}
		if tc.name == "wide" {
			if s := st.Stripes[0]; s.Flop >= int64(tc.b.Cols) || tw.Flop/w < int64(tc.b.Cols) {
				t.Errorf("wide: stripe flop %d, per-worker flop %d, Cols %d", s.Flop, tw.Flop/w, tc.b.Cols)
			}
			if tw.DenseFlop != tw.Flop || tw.HashLookups != 0 {
				t.Errorf("wide: DenseFlop %d of %d, %d hash lookups: a fine cut moved rows to the table", tw.DenseFlop, tw.Flop, tw.HashLookups)
			}
		}
	}
}
