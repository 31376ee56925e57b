package spgemm

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/accum"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// TestTileColsIsTheDerivation keeps tilegeom.go's comment executable: the
// constant is the working-set rule evaluated for the 1 MiB KNL L2 slice —
// the widest power of two whose value + stamp + index entries fit half of it
// — for every value width the kernels are instantiated at, and it clears the
// 1024-column floor below which B-row stanzas turn latency-bound.
func TestTileColsIsTheDerivation(t *testing.T) {
	for _, elem := range []int{1, 4, 8} {
		fit := (1 << 20 / 2) / (elem + 8)
		if w := 1 << (bits.Len(uint(fit)) - 1); w != tileCols {
			t.Errorf("elem %d B: floorPow2(%d) = %d, tileCols = %d", elem, fit, w, tileCols)
		}
	}
	if tileCols < 1024 {
		t.Errorf("tileCols = %d is under the 1024-column latency floor", tileCols)
	}
}

func TestTileGeometryOverrides(t *testing.T) {
	o := &OptionsG[float64]{}
	tc, hf := o.tileGeometry()
	if tc != 32768 || hf != 32768 {
		t.Errorf("default geometry = (%d, %d), want (32768, 32768)", tc, hf)
	}
	o = &OptionsG[float64]{TileCols: 64}
	if tc, hf = o.tileGeometry(); tc != 64 || hf != 64 {
		t.Errorf("TileCols override = (%d, %d), want (64, 64)", tc, hf)
	}
	o = &OptionsG[float64]{TileCols: 64, TileHeavyFlop: 7}
	if tc, hf = o.tileGeometry(); tc != 64 || hf != 7 {
		t.Errorf("full override = (%d, %d), want (64, 7)", tc, hf)
	}
}

// heavyRowCase builds a skewed product with one genuinely heavy row at
// default geometry: A is 64×n with row 0 touching 40000 columns, B is the
// n×n identity (so row flop = row nnz), n = 70000 > the 32768 analytic
// tile width. MaxRowFlop = 40000 > 32768 ⇒ HasHeavyRows fires.
func heavyRowCase() (a, b *matrix.CSR) {
	const n = 70000
	const heavy = 40000
	ca := matrix.NewCOO(64, n)
	for j := 0; j < heavy; j++ {
		ca.Append(0, int32(j), 1+float64(j%7))
	}
	for i := 1; i < 64; i++ {
		ca.Append(int32(i), int32(i*997%n), 2)
	}
	cb := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		cb.Append(int32(i), int32(i), float64(1+i%3))
	}
	return ca.ToCSR(), cb.ToCSR()
}

func TestHasHeavyRows(t *testing.T) {
	a, b := heavyRowCase()
	if !HasHeavyRows(a, b) {
		t.Error("HasHeavyRows = false on a 40000-flop row with 70000 output columns")
	}
	if MaxRowFlop(a, b) != 40000 {
		t.Errorf("MaxRowFlop = %d, want 40000", MaxRowFlop(a, b))
	}
	// Narrow output (fits one tile): never heavy, regardless of flop.
	rng := rand.New(rand.NewSource(5))
	g := gen.ER(8, 8, rng)
	if HasHeavyRows(g, g) {
		t.Error("HasHeavyRows = true on a 256-column product")
	}
}

// TestTiledMatchesHash forces tiny tiles on a skewed G500 input so the heavy
// (row, tile) path does real work, and requires the result to be
// BIT-IDENTICAL to the hash kernel's: both paths fold each output entry's
// contributions in ascending A-row entry order, so even float64 rounding
// must agree exactly.
func TestTiledMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(20180618))
	a := gen.RMAT(9, 8, gen.G500Params, rng)
	for _, unsorted := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			want, err := Multiply(a, a, &Options{Algorithm: AlgHash, Unsorted: unsorted, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			var st ExecStats
			got, err := Multiply(a, a, &Options{
				Algorithm: AlgTiled, Unsorted: unsorted, Workers: workers,
				TileCols: 64, TileHeavyFlop: 16, Stats: &st,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !unsorted {
				assertIdenticalCSR(t, got, want)
			} else {
				gs, ws := got.Clone(), want.Clone()
				gs.SortRows()
				ws.SortRows()
				assertIdenticalCSR(t, gs, ws)
			}
			if st.TotalWorker().L2Overflows == 0 {
				t.Errorf("unsorted=%v workers=%d: no units routed through tiling under forced 64-wide tiles", unsorted, workers)
			}
			if st.Algorithm != AlgTiled {
				t.Errorf("Stats.Algorithm = %v, want AlgTiled", st.Algorithm)
			}
		}
	}
}

func assertIdenticalCSR(t *testing.T, got, want *matrix.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("shape/nnz mismatch: got %dx%d/%d, want %dx%d/%d",
			got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := 0; i <= got.Rows; i++ {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for p := range want.ColIdx {
		if got.ColIdx[p] != want.ColIdx[p] {
			t.Fatalf("ColIdx[%d] = %d, want %d", p, got.ColIdx[p], want.ColIdx[p])
		}
		if got.Val[p] != want.Val[p] {
			t.Fatalf("Val[%d] = %v, want %v (not bit-identical)", p, got.Val[p], want.Val[p])
		}
	}
}

// TestTiledDefaultGeometryAllLight: at analytic geometry a small product has
// a single tile, so every row stays on the light hash path and nothing is
// counted as an overflow.
func TestTiledDefaultGeometryAllLight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := gen.ER(8, 8, rng)
	var st ExecStats
	got, err := Multiply(a, a, &Options{Algorithm: AlgTiled, Workers: 2, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Multiply(a, a, &Options{Algorithm: AlgHash, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalCSR(t, got, want)
	if n := st.TotalWorker().L2Overflows; n != 0 {
		t.Errorf("L2Overflows = %d on a single-tile product, want 0", n)
	}
}

// TestAutoSelectsTiledOnHeavyRows: the recipe routes the skewed heavy-row
// regime to AlgTiled, the resolved algorithm lands in Stats, and the result
// matches the hash kernel bit for bit. At default geometry the product
// splits into ⌈70000/32768⌉ = 3 tiles and the heavy row really overflows.
func TestAutoSelectsTiledOnHeavyRows(t *testing.T) {
	a, b := heavyRowCase()
	if alg := Recommend(a, b, true, UseSquare); alg != AlgTiled {
		t.Fatalf("Recommend = %v, want AlgTiled", alg)
	}
	var st ExecStats
	got, err := Multiply(a, b, &Options{Algorithm: AlgAuto, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.Algorithm != AlgTiled {
		t.Fatalf("AlgAuto resolved to %v, want AlgTiled", st.Algorithm)
	}
	if st.TotalWorker().L2Overflows == 0 {
		t.Error("heavy row not routed through tiling at default geometry")
	}
	want, err := Multiply(a, b, &Options{Algorithm: AlgHash})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalCSR(t, got, want)
}

// TestTiledSortedInvariant: forced tiny tiles on an unsorted-B input with
// sorted output requested — the per-tile sorted extraction plus ascending
// tile stitch must yield globally sorted rows without any post-pass.
func TestTiledSortedInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.RMAT(8, 8, gen.G500Params, rng)
	u := gen.Unsorted(g, rng)
	c, err := Multiply(u, u, &Options{Algorithm: AlgTiled, Workers: 3, TileCols: 32, TileHeavyFlop: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Sorted || !c.IsSortedRows() {
		t.Fatal("tiled output not sorted despite Sorted flag contract")
	}
}

// TestTiledSteadyStateAllocs is the satellite pin: with a reused Context and
// forced tiny tiles (so the split + stitch + heavy units all run every
// call), steady-state allocations must stay at the output-only level of the
// other kernels — the split buffers, unit arrays, and stitch must all come
// from the Context.
func TestTiledSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := gen.RMAT(8, 8, gen.G500Params, rng)
	opt := &Options{
		Algorithm: AlgTiled, Workers: 1, Context: NewContext(),
		TileCols: 64, TileHeavyFlop: 16,
	}
	var sink *matrix.CSR
	run := func() {
		c, err := Multiply(a, a, opt)
		if err != nil {
			t.Fatal(err)
		}
		sink = c
	}
	run() // warm the context: split buffers, unit arrays, SPA, hash tables
	allocs := testing.AllocsPerRun(10, run)
	// Output CSR arrays + header + the fixed per-call closures; anything
	// growing per row or per tile would blow well past this.
	if allocs > 16 {
		t.Errorf("tiled Multiply with Context: %v allocs/op, want <= 16 (output-only)", allocs)
	}
	_ = sink

	// The stitch primitive itself: a unit's Row loop and its extraction into
	// a preallocated output slice allocate nothing at all.
	spa := accum.NewSPAG[float64](64)
	cols := make([]int32, 64)
	vals := make([]float64, 64)
	requireZeroAllocs(t, "tiled stitch extract", func() {
		dense, stamp, gen := spa.Row(nil, nil)
		n := 0
		for k := int32(60); k > 0; k -= 3 {
			if stamp[k] != gen {
				stamp[k], dense[k], cols[n] = gen, float64(k), k
				n++
			} else {
				dense[k] += 1
			}
		}
		spa.Gather(cols[:n], vals, true)
	})
}
