package spgemm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

func TestEstimateCompressionRatioExactOnFullSample(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	a := matrix.Random(40, 40, 0.2, rng)
	st := matrix.ProductStats(a, a)
	got := EstimateCompressionRatio(a, a, a.Rows) // full sample → exact
	if math.Abs(got-st.CompressionRatio) > 1e-9 {
		t.Fatalf("estimate %v, exact %v", got, st.CompressionRatio)
	}
}

func TestEstimateCompressionRatioSampledIsClose(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	a := matrix.RandomWithDegree(2000, 2000, 8, rng)
	exact := matrix.ProductStats(a, a).CompressionRatio
	est := EstimateCompressionRatio(a, a, 200)
	if est < exact*0.7 || est > exact*1.3 {
		t.Fatalf("sampled estimate %v too far from exact %v", est, exact)
	}
}

func TestEstimateCompressionRatioDegenerate(t *testing.T) {
	empty := matrix.NewCSR(0, 0)
	if got := EstimateCompressionRatio(empty, empty, 10); got != 1 {
		t.Fatalf("empty: %v", got)
	}
	z := matrix.NewCSR(5, 5)
	if got := EstimateCompressionRatio(z, z, 10); got != 1 {
		t.Fatalf("zero: %v", got)
	}
}

// TestCompressionRatioSamplesAtMostSampleRows: the stride rounds up, so a
// sample never counts more than sampleRows rows — a truncated stride counted
// up to twice as many just past each multiple. Every row of A·B here is one
// product into a column space wide enough that the counter is the hash
// table, so its lookups are the sampled rows; the Context's worker-0 table is
// the one the sample ran on.
func TestCompressionRatioSamplesAtMostSampleRows(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	for _, rows := range []int{65, 127, 129} {
		a := matrix.Identity(rows)
		b := matrix.RandomWithDegree(rows, 1<<16, 1, rng)
		ctx := NewContext()
		ctx.ensureWorkers(1)
		if cr := ctx.compressionRatio(a, b, recipeSampleRows); cr != 1 {
			t.Errorf("rows %d: ratio %v, want 1", rows, cr)
		}
		if n := ctx.hash[0].Lookups(); n > recipeSampleRows || 2*n < recipeSampleRows {
			t.Errorf("rows %d: sampled %d rows, want at most %d and at least half of it", rows, n, recipeSampleRows)
		}
	}
}

func TestIsSkewedDistinguishesUniformFromPowerLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	uniform := matrix.RandomWithDegree(500, 500, 8, rng)
	if IsSkewed(uniform) {
		t.Fatal("constant-degree matrix flagged as skewed")
	}
	// Power-law-ish: a few huge rows, many tiny.
	c := matrix.NewCOO(500, 500)
	for i := 0; i < 20; i++ {
		for j := 0; j < 200; j++ {
			c.Append(int32(i), int32(rng.Intn(500)), 1)
		}
	}
	for i := 20; i < 500; i++ {
		c.Append(int32(i), int32(rng.Intn(500)), 1)
	}
	skewed := c.ToCSR()
	if !IsSkewed(skewed) {
		t.Fatal("power-law matrix not flagged as skewed")
	}
}

// heavyRowCase builds a skewed square product with one heavy row: A is
// 64×n with row 0 touching 40000 columns, B is the n×n identity (so row flop
// = row nnz), n = 70000.
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

// TestAutoSelectsHashOnHeavyRows: the skewed dense square cell, one 40000-flop
// row over 70000 output columns, goes to Hash, and the AlgAuto product is
// the oracle's.
func TestAutoSelectsHashOnHeavyRows(t *testing.T) {
	a, b := heavyRowCase()
	if alg := Recommend(a, b, true, UseSquare); alg != AlgHash {
		t.Fatalf("Recommend = %v, want hash", alg)
	}
	var st ExecStats
	got, err := Multiply(a, b, &Options{Algorithm: AlgAuto, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.Algorithm != AlgHash {
		t.Fatalf("AlgAuto resolved to %v, want hash", st.Algorithm)
	}
	if !matrix.Equal(got, matrix.NaiveMultiply(a, b)) {
		t.Fatal("AlgAuto product differs from NaiveMultiply")
	}
}

func TestRecommendCoversTable4(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	dense := matrix.RandomWithDegree(300, 300, 16, rng) // uniform, EF 16
	sparse := matrix.RandomWithDegree(300, 300, 4, rng) // uniform, EF 4
	thin := matrix.RandomWithDegree(300, 300, 2, rng)   // uniform, EF 2

	// Uniform dense sorted AxA: hash.
	if alg := Recommend(dense, dense, true, UseSquare); alg != AlgHash {
		t.Fatalf("uniform dense sorted: %v", alg)
	}
	// Uniform sorted AxA with low CR: heap up to heapMaxEF nonzeros per row
	// (the one cell it measured faster in), hash above, and hash whenever
	// the output may stay unsorted or B's rows are.
	if cr := EstimateCompressionRatio(thin, thin, 300); cr > 2 {
		t.Fatalf("fixture: EF 2 matrix has compression ratio %v", cr)
	}
	if alg := Recommend(thin, thin, true, UseSquare); alg != AlgHeap {
		t.Fatalf("uniform EF 2 low-CR sorted: %v", alg)
	}
	for _, m := range []*matrix.CSR{matrix.RandomWithDegree(300, 300, 3, rng), sparse} {
		if alg := Recommend(m, m, true, UseSquare); alg != AlgHash {
			t.Fatalf("uniform EF %v low-CR sorted: %v", m.AvgRowNNZ(), alg)
		}
	}
	if alg := Recommend(thin, thin, false, UseSquare); alg != AlgHash {
		t.Fatalf("uniform EF 2 unsorted output: %v", alg)
	}
	if alg := Recommend(thin, thin.PermuteCols(matrix.RandomPermutation(thin.Cols, rng)), true, UseSquare); alg != AlgHash {
		t.Fatalf("uniform EF 2 unsorted B: %v", alg)
	}
	// Unsorted high-CR: the paper's Table 4a says MKL-inspector; the recipe
	// only answers production kernels, so Hash.
	band := bandedMatrix(400, 24)
	if EstimateCompressionRatio(band, band, 400) <= 2 {
		t.Fatal("fixture: banded matrix is not high-CR")
	}
	if alg := Recommend(band, band, false, UseSquare); alg != AlgHash {
		t.Fatalf("unsorted high-CR: %v", alg)
	}
	// Tall-skinny: hash family always.
	if alg := Recommend(dense, dense, false, UseTallSkinny); alg != AlgHash {
		t.Fatalf("tallskinny unsorted: %v", alg)
	}
	// Triangle: the paper's low-CR Heap cell measured slower; hash, so the
	// mask always fuses.
	for _, m := range []*matrix.CSR{thin, sparse, dense} {
		if alg := Recommend(m, m, true, UseTriangle); alg != AlgHash {
			t.Fatalf("LxU sorted: %v", alg)
		}
	}
	// Every recommendation must be a concrete algorithm.
	for _, uc := range []UseCase{UseSquare, UseTallSkinny, UseTriangle} {
		for _, sorted := range []bool{true, false} {
			alg := Recommend(dense, dense, sorted, uc)
			if alg == AlgAuto {
				t.Fatalf("Recommend returned AlgAuto for %v sorted=%v", uc, sorted)
			}
			if !sorted && !SupportsUnsorted(alg) {
				t.Fatalf("unsorted request got sorting-only algorithm %v", alg)
			}
		}
	}
}

// TestRecommendNeverReturnsHashVec: the two Table 4 cells the paper gives to
// HashVector (tall-skinny sorted dense skewed, square unsorted sparse skewed)
// resolve to Hash; the chunked table is a figure baseline, not a kernel.
func TestRecommendNeverReturnsHashVec(t *testing.T) {
	rng := rand.New(rand.NewSource(128))
	skewed := func(heavyDeg int) *matrix.CSR {
		c := matrix.NewCOO(500, 500)
		for i := 0; i < 500; i++ {
			deg := 1
			if i < 20 {
				deg = heavyDeg
			}
			for j := 0; j < deg; j++ {
				c.Append(int32(i), int32(rng.Intn(500)), 1)
			}
		}
		return c.ToCSR()
	}
	denseSkewed, sparseSkewed := skewed(400), skewed(60)
	if !IsSkewed(denseSkewed) || denseSkewed.AvgRowNNZ() <= 8 {
		t.Fatal("fixture: dense skewed matrix is not dense and skewed")
	}
	if !IsSkewed(sparseSkewed) || sparseSkewed.AvgRowNNZ() > 8 {
		t.Fatal("fixture: sparse skewed matrix is not sparse and skewed")
	}
	if alg := Recommend(denseSkewed, denseSkewed, true, UseTallSkinny); alg != AlgHash {
		t.Errorf("tall-skinny sorted dense skewed: %v, want hash", alg)
	}
	if alg := Recommend(sparseSkewed, sparseSkewed, false, UseSquare); alg != AlgHash {
		t.Errorf("square unsorted sparse skewed: %v, want hash", alg)
	}
}

// TestRecommendOnlyProductionKernels: AlgAuto never answers a figure
// stand-in. Over uniform, banded and skewed inputs (sorted and unsorted
// rows) × output order × use case the recipe returns one of the three
// kernels it is documented to — Heap among them, so that leg is not vacuous — and
// every answer builds a Plan, so the multiply server keeps every pair on its
// plan cache.
func TestRecommendOnlyProductionKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	skewed := matrix.NewCOO(500, 500)
	for i := 0; i < 500; i++ {
		deg := 1
		if i < 20 {
			deg = 400
		}
		for j := 0; j < deg; j++ {
			skewed.Append(int32(i), int32(rng.Intn(500)), 1)
		}
	}
	inputs := []*matrix.CSR{
		matrix.RandomWithDegree(300, 300, 16, rng),
		matrix.RandomWithDegree(300, 300, 4, rng),
		matrix.RandomWithDegree(300, 300, 2, rng),
		bandedMatrix(400, 24),
		skewed.ToCSR(),
	}
	for _, m := range inputs {
		inputs = append(inputs, m.PermuteCols(matrix.RandomPermutation(m.Cols, rng)))
	}
	heapAnswers := 0
	for i, m := range inputs {
		for _, uc := range []UseCase{UseSquare, UseTallSkinny, UseTriangle} {
			for _, sorted := range []bool{true, false} {
				alg := Recommend(m, m, sorted, uc)
				switch alg {
				case AlgHeap:
					heapAnswers++
				case AlgHash:
				default:
					t.Errorf("input %d %v sorted=%v: Recommend = %v", i, uc, sorted, alg)
				}
				if _, err := NewPlan(m, m, &Options{Unsorted: !sorted, UseCase: uc}); err != nil {
					t.Errorf("input %d %v sorted=%v (%v): NewPlan(AlgAuto): %v", i, uc, sorted, alg, err)
				}
			}
		}
	}
	if heapAnswers == 0 {
		t.Error("no input reached the recipe's Heap cell")
	}
}

// bandedMatrix builds a dense band: row i has entries in columns
// [i-w/2, i+w/2] — a regular pattern with high compression ratio, like the
// paper's FEM matrices.
func bandedMatrix(n, w int) *matrix.CSR {
	c := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for d := -w / 2; d <= w/2; d++ {
			j := i + d
			if j >= 0 && j < n {
				c.Append(int32(i), int32(j), 1)
			}
		}
	}
	return c.ToCSR()
}

func TestAutoAlgorithmWorks(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	a := matrix.Random(50, 50, 0.1, rng)
	want := matrix.NaiveMultiply(a, a)
	got, err := Multiply(a, a, &Options{Algorithm: AlgAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(want, got, 1e-10) {
		t.Fatal("auto-selected algorithm produced wrong result")
	}
}

func TestUseCaseStrings(t *testing.T) {
	if UseSquare.String() != "AxA" || UseTallSkinny.String() != "TallSkinny" || UseTriangle.String() != "LxU" {
		t.Fatal("use case names wrong")
	}
	if UseCase(9).String() != "unknown" {
		t.Fatal("unknown use case name")
	}
}

func TestCollectAccessStats(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	a := matrix.RandomWithDegree(100, 100, 8, rng)
	st := CollectAccessStats(a, a, 0)
	flop, _ := matrix.Flop(a, a)
	if st.Flop != flop {
		t.Fatalf("Flop = %d, want %d", st.Flop, flop)
	}
	if st.RandomBytes != flop*8 {
		t.Fatalf("RandomBytes = %d", st.RandomBytes)
	}
	// Each B row has 8 entries = 96 bytes → bucket 6 ([64,128)).
	var stanzaTotal int64
	for k, b := range st.StanzaBytes {
		stanzaTotal += b
		if b > 0 && k != 6 {
			t.Fatalf("unexpected bucket %d with %d bytes", k, b)
		}
	}
	if stanzaTotal != flop*bytesPerEntry {
		t.Fatalf("stanza bytes %d, want %d", stanzaTotal, flop*bytesPerEntry)
	}
	if st.MeanStanzaBytes() < 64 || st.MeanStanzaBytes() >= 128 {
		t.Fatalf("mean stanza %v out of bucket", st.MeanStanzaBytes())
	}
	if st.TotalBytes() <= st.StreamBytes {
		t.Fatal("TotalBytes must include all categories")
	}
}

func TestAccessStatsDenserMeansLongerStanzas(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	sparse := matrix.RandomWithDegree(200, 200, 4, rng)
	dense := matrix.RandomWithDegree(200, 200, 32, rng)
	if CollectAccessStats(sparse, sparse, 0).MeanStanzaBytes() >=
		CollectAccessStats(dense, dense, 0).MeanStanzaBytes() {
		t.Fatal("denser matrix should have longer stanzas")
	}
}

// TestShardedRecommendedPreCheck: the O(Rows) bound nnz(A)·maxRowNNZ(B) in
// front of shardedRecommended may only ever answer "no" early; on both sides
// of it the decision is the one the exact flop and the sampled compression
// ratio give. B has one long row, so the bound is far above the true flop
// and thresholds between the two reach the exact scan.
func TestShardedRecommendedPreCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(129))
	a := matrix.RandomWithDegree(300, 300, 5, rng)
	coo := matrix.NewCOO(300, 300)
	for i := 0; i < 300; i++ {
		deg := 3
		if i == 7 {
			deg = 250
		}
		for j := 0; j < deg; j++ {
			coo.Append(int32(i), int32(rng.Intn(300)), 1)
		}
	}
	b := coo.ToCSR()
	flop, _ := matrix.Flop(a, b)
	var maxRow int64
	for k := 0; k < b.Rows; k++ {
		if n := b.RowPtr[k+1] - b.RowPtr[k]; n > maxRow {
			maxRow = n
		}
	}
	const per = 12 // int32 column + float64 value
	bound := a.NNZ() * maxRow * per
	out := int64(float64(flop) / EstimateCompressionRatio(a, b, 1000) * per)
	if !(out < flop*per && flop*per < bound/4) {
		t.Fatalf("fixture: output %d, flop bytes %d, bound %d do not separate", out, flop*per, bound)
	}
	prev := shardedAutoBytes.Load()
	defer shardedAutoBytes.Store(prev)
	for _, c := range []struct {
		limit int64
		want  bool
		side  string
	}{
		{bound + 1, false, "under the pre-check bound"},
		{bound, false, "past the pre-check, under the exact flop"},
		{flop*per + 1, false, "past the pre-check, just under the exact flop"},
		{flop * per, false, "past both bounds, under the estimate"},
		{out + 1, false, "just over the estimate"},
		{out, true, "at the estimate"},
		{1, true, "any output"},
	} {
		shardedAutoBytes.Store(c.limit)
		if got := shardedRecommended(a, b); got != c.want {
			t.Errorf("limit %d (%s): shardedRecommended = %v, want %v", c.limit, c.side, got, c.want)
		}
	}
}
