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
// flop, and no time goes to symbolic.
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
					if (st.Phases[PhaseSymbolic] == 0) != onePass {
						t.Errorf("%s: symbolic took %v, want none iff on the one-pass route (%v)", name, st.Phases[PhaseSymbolic], onePass)
					}
					if onePass {
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

// TestMaskedHypersparseKeepsHashIndex is the same guard for the masked row
// function's col→slot index: with 2^28 columns and a few hundred entries the
// index must be the hash table — a dense one would be 1 GiB per worker — on a
// fresh Context and on a warm one, whose index and windows are then reused.
func TestMaskedHypersparseKeepsHashIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := matrix.RandomWithDegree(64, 64, 3, rng)
	b := matrix.RandomWithDegree(64, 1<<28, 3, rng)
	full := matrix.NaiveMultiply(a, b)
	// The mask: every second entry of the product, and per row one column
	// no product reaches, stored out of order.
	mask := &matrix.CSR{Rows: full.Rows, Cols: full.Cols, RowPtr: make([]int64, full.Rows+1)}
	want := make([]float64, full.Rows)
	for i := 0; i < full.Rows; i++ {
		cols, vals := full.Row(i)
		mask.ColIdx = append(mask.ColIdx, int32(1<<28-1-i))
		for p := 0; p < len(cols); p += 2 {
			mask.ColIdx = append(mask.ColIdx, cols[p])
			want[i] += vals[p]
		}
		mask.RowPtr[i+1] = int64(len(mask.ColIdx))
	}
	mask.Val = make([]float64, len(mask.ColIdx))
	// Each cold call gets a fresh Context, which the warm calls then reuse.
	var ctx *Context
	none := func() *Context { return nil }
	for _, tc := range []struct {
		name     string
		ctx      func() *Context
		unsorted bool
		max      uint64
	}{
		{"one-shot", none, false, 1 << 20},
		{"one-shot-unsorted", none, true, 1 << 20},
		{"context-cold", func() *Context { ctx = NewContext(); return ctx }, false, 1 << 20},
		{"context-warm", func() *Context { return ctx }, false, 16 << 10}, // the sums and little else
	} {
		var got []float64
		var err error
		d := testalloc.Bytes(func() {
			got, err = MaskedRowSums(semiring.PlusTimesF64{}, a, b, mask, &Options{Algorithm: AlgHash, Workers: 2, Unsorted: tc.unsorted, Context: tc.ctx()})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: row sums %v, want %v", tc.name, got, want)
		}
		if d > tc.max {
			t.Errorf("%s: allocated %d B, want at most %d", tc.name, d, tc.max)
		}
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
			if ctx.wordMasks(a, bm, &inspection[float64]{flopRow: flopRow, dense: true}) != nil {
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
						var m wordMasks
						m.build(bm.RowPtr, bm.ColIdx)
						rc = rowCounter[float64]{stamps: accum.NewStampSet(bm.Cols), masks: &m, occ: make([]uint64, words)}
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
				if ctx.wordMasks(a, bm, &inspection[float64]{flopRow: flopRow, dense: true}) != nil {
					rule = "masks"
				}
			}
			var m wordMasks
			m.build(bm.RowPtr, bm.ColIdx)
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
							h.masks = &m
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

// TestMaskedRowCut: a masked row stops each sorted B row at the first column
// past its mask row's largest, and its sum stays bit-identical to the fold of
// the ring oracle's row filtered by the mask's pattern — on a B whose rows run
// past the mask rows' ends, the same B shuffled and flagged unsorted (no cut),
// a mask row that repeats its largest column, one shuffled so its largest is
// not last, empty mask rows, and an A of fewer rows than the one-phase
// geometry cuts stripes, on the integer plus-times and the min-plus ring.
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
		checkMaskedCut(t, ops.name+"/i64", semiring.PlusTimesI64{}, matrix.MapValues(ops.a, i64), matrix.MapValues(ops.b, i64), rng)
		checkMaskedCut(t, ops.name+"/minplus", semiring.MinPlusF64{}, matrix.MapValues(ops.a, math.Abs), matrix.MapValues(ops.b, math.Abs), rng)
	}
	// Row 0's products all miss its mask row, so it sums to zero: a miss lands
	// in the trash slot, never on a mask slot. Row 1's products cancel, 2.5 +
	// (-2.5), and row 2's one product is 1·(-0): both sum to zero too, and
	// row 1 would not if a product of it were lost. On B's own columns and
	// padded past the flop, which moves the mask index from the dense array to
	// the table. TestMaskedRowBodies pins the entries themselves.
	za := &matrix.CSR{Rows: 3, Cols: 3, RowPtr: []int64{0, 1, 3, 4}, ColIdx: []int32{0, 0, 1, 2}, Val: []float64{1, 1, 1, 1}, Sorted: true}
	zb := &matrix.CSR{Rows: 3, Cols: 4, RowPtr: []int64{0, 2, 3, 4}, ColIdx: []int32{0, 1, 0, 3}, Val: []float64{2.5, 1, -2.5, negZero}, Sorted: true}
	zm := &matrix.CSR{Rows: 3, Cols: 4, RowPtr: []int64{0, 2, 3, 4}, ColIdx: []int32{2, 3, 0, 3}, Val: make([]float64, 4), Sorted: true}
	for _, cols := range []int{4, 7} {
		b, mask := *zb, *zm
		b.Cols, mask.Cols = cols, cols
		for _, workers := range []int{1, 2} {
			got, err := MaskedRowSums(semiring.PlusTimesF64{}, za, &b, &mask, &Options{Algorithm: AlgHash, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, []float64{0, 0, 0}) {
				t.Errorf("misses/cancel cols=%d W=%d: sums %v, want [0 0 0]", cols, workers, got)
			}
			i64 := matrix.MapValues(za, func(v float64) int64 { return int64(v) })
			ib := matrix.MapValues(&b, func(v float64) int64 { return int64(2 * v) })
			gi, err := MaskedRowSums(semiring.PlusTimesI64{}, i64, ib, matrix.MapValues(&mask, func(float64) int64 { return 0 }), &OptionsG[int64]{Algorithm: AlgHash, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gi, []int64{0, 0, 0}) {
				t.Errorf("i64 misses/cancel cols=%d W=%d: sums %v, want [0 0 0]", cols, workers, gi)
			}
		}
	}
}

// TestMaskedArithSelection pins which body folds a masked row: the three
// plus-times rings take ptBodies.maskedRow, whose misses land in slot 0 of the
// row's window, every other ring — a foreign one with plus-times methods
// included — ringBodies.maskedRow, which skips a miss and leaves slot 0
// alone. One row whose only product misses, on the dense index and on the
// table.
func TestMaskedArithSelection(t *testing.T) {
	for _, tc := range []struct {
		name       string
		trash      func(dense bool) bool
		arithmetic bool
	}{
		{"plus-times<f64>", func(d bool) bool { return missHitsTrash(t, semiring.PlusTimesF64{}, 1.0, d) }, true},
		{"plus-times<f32>", func(d bool) bool { return missHitsTrash(t, semiring.PlusTimesF32{}, float32(1), d) }, true},
		{"plus-times<i64>", func(d bool) bool { return missHitsTrash(t, semiring.PlusTimesI64{}, int64(1), d) }, true},
		{"min-plus<f64>", func(d bool) bool { return missHitsTrash(t, semiring.MinPlusF64{}, 1.0, d) }, false},
		{"max-times<f64>", func(d bool) bool { return missHitsTrash(t, semiring.MaxTimesF64{}, 1.0, d) }, false},
		{"or-and<bool>", func(d bool) bool { return missHitsTrash(t, semiring.OrAndBool{}, true, d) }, false},
		{"or-and<u64>", func(d bool) bool { return missHitsTrash(t, semiring.OrAndU64{}, uint64(1), d) }, false},
		{"foreign plus-times<f64>", func(d bool) bool { return missHitsTrash(t, slowPlusTimesF64{}, 1.0, d) }, false},
	} {
		for _, dense := range []bool{true, false} {
			if got := tc.trash(dense); got != tc.arithmetic {
				t.Errorf("%s dense=%v: miss in the trash slot = %v, want %v", tc.name, dense, got, tc.arithmetic)
			}
		}
	}
}

// TestMaskedRowBodies pins a masked row entry by entry, which its row sum
// cannot: ringBodies.maskedRow and ptBodies.maskedRow run every row of a
// sorted, a B-shuffled, a special-valued (±0, ±Inf) and a rectangular product
// under each shape of maskShapes, on the dense index and on the table, and
// each row must be the unmasked Hash row with the columns outside its mask
// row removed — columns, order and value bits — the two bodies alike, with
// the dense index left all zero behind every row.
func TestMaskedRowBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	sq := matrix.RandomWithDegree(40, 40, 5, rng)
	palette := []float64{1, -1, 0, negZero, math.Inf(1), math.Inf(-1), 2.5, -2.5}
	special := matrix.MapValues(gen.ER(6, 6, rng), func(float64) float64 { return palette[rng.Intn(len(palette))] })
	rect, wide := matrix.RandomWithDegree(30, 24, 4, rng), matrix.RandomWithDegree(24, 50, 6, rng)
	shuffled := sq.ShuffleRowEntries(rng)
	shuffled.Sorted = false
	bodies := []struct {
		name string
		body rowBodies[float64, semiring.PlusTimesF64]
	}{{"ring", ringBodies[float64, semiring.PlusTimesF64]{}}, {"pt", ptBodies[float64, semiring.PlusTimesF64]{}}}
	for _, ops := range []struct {
		name string
		a, b *matrix.CSR
	}{{"sorted", sq, sq}, {"unsortedB", sq, shuffled}, {"special", special, special}, {"rect", rect, wide}} {
		a, b := ops.a, ops.b
		hash, err := Multiply(a, b, &Options{Algorithm: AlgHash, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, mc := range maskShapes(a, hash, rng) {
			want := filterByMask(hash, mc.m)
			for _, dense := range []bool{true, false} {
				var index []int32
				var table *accum.HashTableG[int32]
				if dense {
					index = make([]int32, b.Cols)
				} else {
					table = accum.NewHashTableG[int32](int64(b.Cols))
				}
				got := make([][]int32, len(bodies))
				gotVals := make([][]float64, len(bodies))
				for i := 0; i < a.Rows; i++ {
					mcols, _ := mc.m.Row(i)
					wcols, wvals := want.Row(i)
					for x, bd := range bodies {
						cols, vals := make([]int32, len(mcols)+1), make([]float64, len(mcols)+1)
						n := bd.body.maskedRow(semiring.PlusTimesF64{}, index, table, a, b, mcols, i, cols, vals, !mc.m.Sorted)
						got[x], gotVals[x] = cols[:n], vals[:n]
						if !slices.Equal(got[x], wcols) || !slices.EqualFunc(gotVals[x], wvals, sameBits[float64]) {
							t.Fatalf("%s/mask=%s/%s dense=%v: row %d is %v %v, want %v %v", ops.name, mc.name, bd.name, dense, i, got[x], gotVals[x], wcols, wvals)
						}
						if slices.ContainsFunc(index, func(e int32) bool { return e != 0 }) {
							t.Fatalf("%s/mask=%s/%s: row %d left the dense index loaded", ops.name, mc.name, bd.name, i)
						}
					}
					if !slices.Equal(got[0], got[1]) || !slices.EqualFunc(gotVals[0], gotVals[1], sameBits[float64]) {
						t.Fatalf("%s/mask=%s dense=%v: row %d differs between the bodies", ops.name, mc.name, dense, i)
					}
				}
			}
		}
	}
}

// maskShape is one mask of maskShapes.
type maskShape struct {
	name string
	m    *matrix.CSR
}

// maskShapes are the masks a col→slot index must survive, for a product c of
// a: an empty mask, every other row fully dense, per row the first column c
// reaches next to two it never touches (ascending, flagged unsorted), on the
// other rows two columns in three each stored twice (flagged Sorted, so the
// row must ascend with no sort behind it), per row everything c reaches plus
// the untouched row again in shuffled order, and a itself when it has c's
// shape (the triangle-counting mask).
func maskShapes(a, c *matrix.CSR, rng *rand.Rand) []maskShape {
	rows, cols := c.Rows, c.Cols
	empty := &matrix.CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	full, untouched, dup, shuffled := empty.Clone(), empty.Clone(), empty.Clone(), empty.Clone()
	dup.Sorted = true
	for i := 0; i < rows; i++ {
		touched, _ := c.Row(i)
		misses, start := 0, len(untouched.ColIdx)
		for j := int32(0); int(j) < cols; j++ {
			if i%2 == 0 {
				full.ColIdx = append(full.ColIdx, j)
			} else if j%3 != 2 {
				dup.ColIdx = append(dup.ColIdx, j, j)
			}
			if reached := slices.Contains(touched, j); !reached && misses < 2 {
				misses++
				untouched.ColIdx = append(untouched.ColIdx, j)
			} else if reached && j == touched[0] {
				untouched.ColIdx = append(untouched.ColIdx, j)
			}
		}
		row := append(slices.Clone(touched), untouched.ColIdx[start:]...)
		rng.Shuffle(len(row), func(x, y int) { row[x], row[y] = row[y], row[x] })
		shuffled.ColIdx = append(shuffled.ColIdx, row...)
		full.RowPtr[i+1], untouched.RowPtr[i+1] = int64(len(full.ColIdx)), int64(len(untouched.ColIdx))
		dup.RowPtr[i+1], shuffled.RowPtr[i+1] = int64(len(dup.ColIdx)), int64(len(shuffled.ColIdx))
	}
	shapes := []maskShape{{"empty", empty}, {"full-rows", full}, {"untouched", untouched}, {"dup-cols", dup}, {"shuffled", shuffled}}
	for _, ms := range shapes {
		ms.m.Val = make([]float64, len(ms.m.ColIdx))
	}
	if a.Rows == rows && a.Cols == cols {
		shapes = append(shapes, maskShape{"self", a})
	}
	return shapes
}

// missHitsTrash runs maskedRows over the one-row product [one]·[one] (column
// 0) under a mask row holding only column 1, and reports whether slot 0 of the
// row's window was written with the missed column. The row must sum to zero.
func missHitsTrash[V semiring.Value, R semiring.Ring[V]](t *testing.T, ring R, one V, dense bool) bool {
	t.Helper()
	row := func(cols int, col int32) *matrix.CSRG[V] {
		return &matrix.CSRG[V]{Rows: 1, Cols: cols, RowPtr: []int64{0, 1}, ColIdx: []int32{col}, Val: []V{one}, Sorted: true}
	}
	a, b, mask := row(1, 0), row(2, 0), row(2, 1)
	ctx := NewContextG[V]()
	ctx.ensureWorkers(1)
	cols, vals, sums := []int32{-7, -7}, make([]V, 2), make([]V, 1)
	maskedRows(ring, ctx, 0, a, b, mask, []int64{1}, 0, 1, dense, cols, vals, sums)
	if sums[0] != ring.Zero() {
		t.Errorf("%v dense=%v: a missed product was summed", ring, dense)
	}
	return cols[0] == 0
}

// checkMaskedCut runs the row sums of a·b over ring under TestMaskedRowCut's
// masks, built from the product: row i's mask is the first half of its
// product row's columns (at least one), so its largest column is reached and
// B's sorted rows run past it; every fifth mask row is empty. Unsorted must
// change nothing.
func checkMaskedCut[V semiring.Value, R semiring.Ring[V]](t *testing.T, name string, ring R, a, b *matrix.CSRG[V], rng *rand.Rand) {
	t.Helper()
	full := matrix.NaiveMultiplyRing(ring, a, b)
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
		filtered := filterByMask(full, mask)
		want := make([]V, full.Rows)
		for i := range want {
			want[i] = ring.Zero()
			for _, v := range filtered.Val[filtered.RowPtr[i]:filtered.RowPtr[i+1]] {
				want[i] = ring.Add(want[i], v)
			}
		}
		for _, workers := range []int{1, 2, 3} {
			for _, unsorted := range []bool{false, true} {
				got, err := MaskedRowSums(ring, a, b, mask, &OptionsG[V]{Algorithm: AlgHash, Workers: workers, Unsorted: unsorted})
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("%s/mask=%s/W=%d/unsorted=%v", name, mname, workers, unsorted), func(t *testing.T) {
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("row %d sums to %v, want %v", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// filterByMask keeps the entries of c whose column row i of mask holds.
func filterByMask[V semiring.Value](c, mask *matrix.CSRG[V]) *matrix.CSRG[V] {
	out := &matrix.CSRG[V]{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int64, c.Rows+1), Sorted: c.Sorted}
	for i := 0; i < c.Rows; i++ {
		mcols, _ := mask.Row(i)
		cols, vals := c.Row(i)
		for p, col := range cols {
			if slices.Contains(mcols, col) {
				out.ColIdx, out.Val = append(out.ColIdx, col), append(out.Val, vals[p])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
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
		m := wordMasks{word: slices.Repeat([]int32{7}, 64), bits: slices.Repeat([]uint64{1 << 40}, 64), runs: make([]int32, 64)}
		m.build(rowPtr, colIdx)
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
	if m := ctx.wordMasks(er, er, &inspection[float64]{flopRow: flopRow, dense: true}); m != nil {
		t.Error("masks built for an ER square whose rows do not compress")
	}
	_, flopRow = matrix.Flop(g500, g500)
	m := ctx.wordMasks(g500, g500, &inspection[float64]{flopRow: flopRow, dense: true})
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
