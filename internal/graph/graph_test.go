package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/spgemm"
	"repro/internal/testalloc"
)

// adjacency builds a symmetric 0/1 adjacency from an edge list.
func adjacency(n int, edges [][2]int32) *matrix.CSR {
	c := matrix.NewCOO(n, n)
	for _, e := range edges {
		c.Append(e[0], e[1], 1)
		c.Append(e[1], e[0], 1)
	}
	m := c.ToCSR()
	// Merge duplicates may have summed values; reset to 1.
	for i := range m.Val {
		m.Val[i] = 1
	}
	return m
}

// bruteTriangles counts triangles by enumeration.
func bruteTriangles(a *matrix.CSR) int64 {
	d := a.ToDense()
	var count int64
	n := a.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d.At(i, j) == 0 {
				continue
			}
			for k := j + 1; k < n; k++ {
				if d.At(i, k) != 0 && d.At(j, k) != 0 {
					count++
				}
			}
		}
	}
	return count
}

// countTriangles runs the pipeline examples/triangles and the benchmark run:
// PrepareTriangles, then CountFromLU with the default options.
func countTriangles(t *testing.T, adj *matrix.CSR) int64 {
	t.Helper()
	prep, err := PrepareTriangles(adj)
	if err != nil {
		t.Fatal(err)
	}
	n, err := CountFromLU(prep.L, prep.U, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCountTrianglesK3(t *testing.T) {
	a := adjacency(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	if n := countTriangles(t, a); n != 1 {
		t.Fatalf("K3 triangles = %d, want 1", n)
	}
}

func TestCountTrianglesK4(t *testing.T) {
	a := adjacency(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if n := countTriangles(t, a); n != 4 {
		t.Fatalf("K4 triangles = %d, want 4", n)
	}
}

func TestCountTrianglesTriangleFree(t *testing.T) {
	// A 6-cycle has no triangles.
	a := adjacency(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	if n := countTriangles(t, a); n != 0 {
		t.Fatalf("cycle triangles = %d, want 0", n)
	}
}

func TestCountTrianglesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 10; trial++ {
		g := gen.RMAT(6, 4, gen.G500Params, rng)
		// Symmetrize + clean exactly as the pipeline will.
		prep, err := PrepareTriangles(g)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild the cleaned adjacency from L+U for brute force.
		full := matrix.FromCSR(prep.L)
		full.Entries = append(full.Entries, matrix.FromCSR(prep.U).Entries...)
		a := full.ToCSR()
		want := bruteTriangles(a)
		// Hash counts under the L mask; every other kernel takes
		// product-then-filter.
		for alg := spgemm.AlgAuto; int(alg) < spgemm.NumAlgorithms; alg++ {
			for _, workers := range []int{1, 2} {
				got, err := CountFromLU(prep.L, prep.U, &spgemm.Options{Algorithm: alg, Workers: workers})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				if got != want {
					t.Fatalf("trial %d %v W=%d: triangles = %d, want %d", trial, alg, workers, got, want)
				}
			}
		}
	}
}

// TestCountFromLUAutoFusesMask: AlgAuto is resolved before the count's
// decision, so when the recipe picks hash the call is the same call as a
// named AlgHash — same count, same kernel, and no symbolic phase, which the
// unmasked product would run.
func TestCountFromLUAutoFusesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := gen.RMAT(9, 16, gen.G500Params, rng)
	res, err := PrepareTriangles(g)
	if err != nil {
		t.Fatal(err)
	}
	var hashStats, autoStats spgemm.ExecStats
	want, err := CountFromLU(res.L, res.U, &spgemm.Options{Algorithm: spgemm.AlgHash, Stats: &hashStats})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountFromLU(res.L, res.U, &spgemm.Options{Algorithm: spgemm.AlgAuto, Stats: &autoStats})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("auto counted %d triangles, hash %d", got, want)
	}
	if autoStats.Algorithm != spgemm.AlgHash || hashStats.Algorithm != spgemm.AlgHash {
		t.Errorf("ExecStats.Algorithm: auto ran %v, hash ran %v, want hash for both", autoStats.Algorithm, hashStats.Algorithm)
	}
	if a, h := autoStats.Phases[spgemm.PhaseSymbolic], hashStats.Phases[spgemm.PhaseSymbolic]; a != 0 || h != 0 {
		t.Errorf("auto ran %v of symbolic phase, hash %v: mask not fused", a, h)
	}
	if a, h := autoStats.TotalWorker().Flop, hashStats.TotalWorker().Flop; a != h || a == 0 {
		t.Errorf("auto counted %d flop, hash %d", a, h)
	}
}

// TestCountFromLUNonUnitFactors: factors holding explicit zeros and values
// other than 1 (2.5, -1). A stored non-zero of L or U is one edge and a
// stored zero none, as operand and as mask alike: the pattern count (Hash,
// and Auto, which resolves to it here) counts the wedges the filter after
// any other kernel does, on the fixture's wedges that close only on a stored
// zero of L too.
func TestCountFromLUNonUnitFactors(t *testing.T) {
	prep, err := PrepareTriangles(gen.RMAT(7, 8, gen.G500Params, rand.New(rand.NewSource(303))))
	if err != nil {
		t.Fatal(err)
	}
	l, u := prep.L.Clone(), prep.U.Clone()
	for p := range l.Val {
		l.Val[p] = []float64{1, 0, 2.5, -1, 1}[p%5]
	}
	for p := range u.Val {
		u.Val[p] = []float64{1, -1, 2.5, 1, 0, 1, 1}[p%7]
	}
	ld, ud := l.ToDense(), u.ToDense()
	var masked, filtered int64
	for i := 0; i < l.Rows; i++ {
		cols, _ := l.Row(i)
		for _, j := range cols {
			for k := 0; k < l.Cols; k++ {
				if ld.At(i, k) != 0 && ud.At(k, int(j)) != 0 {
					masked++
					if ld.At(i, int(j)) != 0 {
						filtered++
					}
				}
			}
		}
	}
	if spgemm.Recommend(l, u, true, spgemm.UseTriangle) != spgemm.AlgHash {
		t.Fatal("the recipe does not answer hash here; the test needs an input it does")
	}
	if masked == filtered {
		t.Fatal("no wedge closes on a stored zero of L; the test needs one that does")
	}
	for _, alg := range []spgemm.Algorithm{spgemm.AlgAuto, spgemm.AlgHash, spgemm.AlgHeap} {
		for _, workers := range []int{1, 2} {
			got, err := CountFromLU(l, u, &spgemm.Options{Algorithm: alg, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got != filtered {
				t.Errorf("%v W=%d: %d wedge closures, want %d", alg, workers, got, filtered)
			}
		}
	}
}

// g500Factors is PrepareTriangles on G500 s13/ef16, the benchmark's
// triangle-counting input.
func g500Factors(t *testing.T) *TriangleResult {
	t.Helper()
	prep, err := PrepareTriangles(gen.RMAT(13, 16, gen.G500Params, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// TestCountFromLUG500: every algorithm counts the benchmark input's
// 1,182,470 triangles at W = 1 and 2.
func TestCountFromLUG500(t *testing.T) {
	prep := g500Factors(t)
	for alg := spgemm.AlgAuto; int(alg) < spgemm.NumAlgorithms; alg++ {
		for _, workers := range []int{1, 2} {
			got, err := CountFromLU(prep.L, prep.U, &spgemm.Options{Algorithm: alg, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got != 1182470 {
				t.Errorf("%v W=%d: %d triangles, want 1182470", alg, workers, got)
			}
		}
	}
}

// TestCountFromLUAllocation: on unit factors one call, without a Context,
// allocates less than one int64 per entry of L, where int64 copies of the
// factors are two, and the stored product about one more.
func TestCountFromLUAllocation(t *testing.T) {
	prep := g500Factors(t)
	opt := &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: 2}
	if _, err := CountFromLU(prep.L, prep.U, opt); err != nil { // the pool's workers start
		t.Fatal(err)
	}
	var err error
	bytes := testalloc.Bytes(func() { _, err = CountFromLU(prep.L, prep.U, opt) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(prep.L.NNZ()) * 8; bytes >= limit {
		t.Errorf("CountFromLU allocated %d B, want < nnz(L)·8 = %d B", bytes, limit)
	}
}

// TestCountFromLUContext: the caller's Context serves the pattern count, so
// five calls on one count the same, and from the second on each allocates at
// most 1 KiB: its parallel region's closure and total, nothing per row.
func TestCountFromLUContext(t *testing.T) {
	prep := g500Factors(t)
	opt := &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: 2, Context: spgemm.NewContext()}
	var first int64
	for call := range 5 {
		var n int64
		var err error
		bytes := testalloc.Bytes(func() { n, err = CountFromLU(prep.L, prep.U, opt) })
		if err != nil {
			t.Fatal(err)
		}
		if call == 0 {
			first = n
			continue
		}
		if n != first {
			t.Errorf("call %d counted %d triangles, the first %d", call, n, first)
		}
		if bytes > 1<<10 {
			t.Errorf("call %d allocated %d B, want <= 1 KiB", call, bytes)
		}
	}
}

// TestCountFromLUHeapContext: the formed-product arm multiplies in the
// caller's Context and recycles the product into it, so a warm forced-Heap
// call on G500 s11 ef16 factors allocates the unit views and the filtered
// copy, not the product, and counts what the pattern count does.
func TestCountFromLUHeapContext(t *testing.T) {
	prep, err := PrepareTriangles(gen.RMAT(11, 16, gen.G500Params, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	want, err := CountFromLU(prep.L, prep.U, &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := &spgemm.Options{Algorithm: spgemm.AlgHeap, Workers: 1, Context: spgemm.NewContext()}
	var got int64
	count := func() { got, err = CountFromLU(prep.L, prep.U, opt) }
	count()
	bytes := testalloc.Bytes(count)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("the Heap arm counted %d triangles, the pattern count %d", got, want)
	}
	if bytes > 1536<<10 {
		t.Errorf("a warm Heap call allocated %d B, want <= 1.5 MB", bytes)
	}
}

// BenchmarkMaskedLU times the pattern count of triangle counting,
// CountFromLU on L and U of G500 s13/ef16 (spgemm.MaskedCount), at W = 1 and
// 2, and reports its allocations and its workers' balance as busy-max/min:
// the busiest worker's WorkerStats.Busy over the idlest's, summed over every
// iteration.
func BenchmarkMaskedLU(b *testing.B) {
	prep, err := PrepareTriangles(gen.RMAT(13, 16, gen.G500Params, rand.New(rand.NewSource(1))))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			busy := make([]time.Duration, workers)
			for b.Loop() {
				var st spgemm.ExecStats
				if _, err := CountFromLU(prep.L, prep.U, &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: workers, Stats: &st}); err != nil {
					b.Fatal(err)
				}
				for w, ws := range st.Workers {
					busy[w] += ws.Busy
				}
			}
			b.ReportMetric(float64(slices.Max(busy))/float64(slices.Min(busy)), "busy-max/min")
		})
	}
}

func TestPrepareTrianglesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	g := gen.RMAT(7, 4, gen.G500Params, rng)
	res, err := PrepareTriangles(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.L.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := res.U.Validate(); err != nil {
		t.Fatal(err)
	}
	// Strictly triangular.
	for i := 0; i < res.L.Rows; i++ {
		cols, _ := res.L.Row(i)
		for _, c := range cols {
			if int(c) >= i {
				t.Fatalf("L has upper entry (%d,%d)", i, c)
			}
		}
	}
	// L and U are transposes of each other for a symmetric matrix.
	if res.L.NNZ() != res.U.NNZ() {
		t.Fatalf("L nnz %d != U nnz %d", res.L.NNZ(), res.U.NNZ())
	}
	// Degree ordering: row degrees of L+U non-strictly increase on average;
	// check the permutation itself on a fabricated matrix instead.
	a := adjacency(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	perm := DegreeOrderPerm(a)
	for i := 1; i < len(perm); i++ {
		if a.RowNNZ(perm[i-1]) > a.RowNNZ(perm[i]) {
			t.Fatal("degree order not ascending")
		}
	}
}

func TestApplySymmetricPermutationPreservesTriangles(t *testing.T) {
	a := adjacency(5, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})
	want := bruteTriangles(a)
	perm := []int{4, 2, 0, 3, 1}
	b := ApplySymmetricPermutation(a, perm)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := bruteTriangles(b); got != want {
		t.Fatalf("permutation changed triangle count: %d vs %d", got, want)
	}
}

func TestTrianglesRejectsNonSquare(t *testing.T) {
	if _, err := PrepareTriangles(matrix.NewCSR(3, 4)); err == nil {
		t.Fatal("expected error for non-square adjacency")
	}
}

func TestMSBFSPath(t *testing.T) {
	// Path 0-1-2-3-4: distances from 0 are 0..4.
	a := adjacency(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	res, err := MSBFS(a, []int32{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if res.Level[v][0] != int32(v) {
			t.Fatalf("level[%d] = %d, want %d", v, res.Level[v][0], v)
		}
	}
}

func TestMSBFSMultipleSourcesAndUnreachable(t *testing.T) {
	// Two components: 0-1-2 and 3-4.
	a := adjacency(5, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	res, err := MSBFS(a, []int32{0, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// From source 0: reach 0,1,2; never 3,4.
	if res.Level[2][0] != 2 || res.Level[3][0] != -1 || res.Level[4][0] != -1 {
		t.Fatalf("levels from 0: %v", [][]int32{res.Level[3], res.Level[4]})
	}
	// From source 3: reach 3,4 only.
	if res.Level[4][1] != 1 || res.Level[0][1] != -1 {
		t.Fatal("levels from 3 wrong")
	}
	if res.Reached() != 5 {
		t.Fatalf("Reached = %d, want 5", res.Reached())
	}
}

// TestMSBFSMatchesSequentialBFS checks every source's levels against a queue
// BFS on a directed and a symmetrized graph, under every kernel MSBFS can be
// forced onto, at source counts on both sides of the 64-bit word boundaries
// (no word at 0, a partial last word at 1, 63, 65 and 130). The sources repeat
// a vertex and include one with no out-edges, and every fifth stored edge
// holds an explicit 0, which is still an edge.
func TestMSBFSMatchesSequentialBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	directed := gen.RMAT(7, 4, gen.G500Params, rng)
	coo := matrix.FromCSR(directed)
	coo.Symmetrize()
	for gi, a := range []*matrix.CSR{directed, coo.ToCSR()} {
		for p := 0; p < len(a.Val); p += 5 {
			a.Val[p] = 0
		}
		sink := int32(-1)
		for v := 0; v < a.Rows && sink < 0; v++ {
			if a.RowNNZ(v) == 0 {
				sink = int32(v)
			}
		}
		if sink < 0 {
			t.Fatalf("graph %d: every vertex has out-edges", gi)
		}
		for _, k := range []int{0, 1, 63, 64, 65, 130} {
			sources := make([]int32, k)
			for j := range sources {
				sources[j] = int32(rng.Intn(a.Rows))
			}
			if k >= 3 {
				sources[1], sources[k-1] = sources[0], sink
			}
			want := make([][]int32, k)
			for j, s := range sources {
				want[j] = sequentialBFS(a, s)
			}
			for _, alg := range []spgemm.Algorithm{spgemm.AlgHash, spgemm.AlgHeap, spgemm.AlgAuto} {
				res, err := MSBFS(a, sources, &spgemm.Options{Algorithm: alg, Workers: 2})
				if err != nil {
					t.Fatalf("graph %d k=%d %v: %v", gi, k, alg, err)
				}
				if len(res.Level) != a.Rows {
					t.Fatalf("graph %d k=%d %v: %d level rows, want %d", gi, k, alg, len(res.Level), a.Rows)
				}
				for v, row := range res.Level {
					if len(row) != k {
						t.Fatalf("graph %d k=%d %v: vertex %d has %d levels", gi, k, alg, v, len(row))
					}
					for j, l := range row {
						if l != want[j][v] {
							t.Fatalf("graph %d k=%d %v: source %d (vertex %d) at vertex %d: level %d, want %d",
								gi, k, alg, j, sources[j], v, l, want[j][v])
						}
					}
				}
			}
		}
	}
}

// TestMSBFSLevelRowsAreCapped: Level's rows are windows of one flat array,
// each capped at its own length, so appending to one row copies it rather
// than writing over the next vertex's levels.
func TestMSBFSLevelRowsAreCapped(t *testing.T) {
	a := adjacency(3, [][2]int32{{0, 1}, {1, 2}})
	res, err := MSBFS(a, []int32{0, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(res.Level[0], 99, 99)
	if want := [][]int32{{0, 2}, {1, 1}, {2, 0}}; !reflect.DeepEqual(res.Level, want) {
		t.Fatalf("after appending to Level[0]: levels %v, want %v", res.Level, want)
	}
}

func sequentialBFS(a *matrix.CSR, src int32) []int32 {
	level := make([]int32, a.Rows)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		cols, _ := a.Row(int(v))
		for _, w := range cols {
			if level[w] < 0 {
				level[w] = level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return level
}

func TestMSBFSBadSource(t *testing.T) {
	a := adjacency(3, [][2]int32{{0, 1}})
	if _, err := MSBFS(a, []int32{7}, nil); err == nil {
		t.Fatal("expected out-of-range source error")
	}
}

func TestMCLTwoCliques(t *testing.T) {
	// Two K4 cliques joined by a single weak edge: MCL must find exactly
	// two clusters with the cliques intact.
	var edges [][2]int32
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, [2]int32{i, j}, [2]int32{i + 4, j + 4})
		}
	}
	edges = append(edges, [2]int32{3, 4})
	a := adjacency(8, edges)
	res, err := MCL(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2 (assignment %v)", res.NumClusters, res.Cluster)
	}
	for i := 1; i < 4; i++ {
		if res.Cluster[i] != res.Cluster[0] {
			t.Fatalf("clique 1 split: %v", res.Cluster)
		}
		if res.Cluster[i+4] != res.Cluster[4] {
			t.Fatalf("clique 2 split: %v", res.Cluster)
		}
	}
	if res.Cluster[0] == res.Cluster[4] {
		t.Fatalf("cliques merged: %v", res.Cluster)
	}
}

func TestMCLDisconnectedComponents(t *testing.T) {
	a := adjacency(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	res, err := MCL(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters < 2 {
		t.Fatalf("clusters = %d, want >= 2", res.NumClusters)
	}
	if res.Cluster[0] == res.Cluster[3] {
		t.Fatal("disconnected vertices clustered together")
	}
	if res.Iterations < 1 {
		t.Fatal("no iterations ran")
	}
}

func TestMCLRejectsNonSquare(t *testing.T) {
	if _, err := MCL(matrix.NewCSR(2, 3), nil); err == nil {
		t.Fatal("expected error")
	}
}

// TestMCLExpansionError takes MCL's other error return, out of the iteration
// loop: the expansion itself fails.
func TestMCLExpansionError(t *testing.T) {
	a := adjacency(4, [][2]int32{{0, 1}, {2, 3}})
	if _, err := MCL(a, &MCLOptions{SpGEMM: &spgemm.Options{Algorithm: spgemm.Algorithm(99)}}); err == nil {
		t.Fatal("expected the unknown algorithm to fail the expansion")
	}
}

// TestMCLInflateInPlace pins inflate's in-place compaction: on a warmed
// iterate it allocates nothing (no per-iteration row-pointer copy), and the
// compacted rows are each row's kept entries, renormalized, in order.
func TestMCLInflateInPlace(t *testing.T) {
	const r, prune = 2, 0.05
	a := gen.RMAT(7, 8, gen.G500Params, rand.New(rand.NewSource(1)))
	m, err := spgemm.Multiply(a, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	normalizeRows(m)
	work := &matrix.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1),
		ColIdx: make([]int32, 0, m.NNZ()), Val: make([]float64, 0, m.NNZ())}
	reset := func() {
		copy(work.RowPtr, m.RowPtr)
		work.ColIdx = append(work.ColIdx[:0], m.ColIdx...)
		work.Val = append(work.Val[:0], m.Val...)
	}
	if allocs := testing.AllocsPerRun(10, func() { reset(); inflate(work, r, prune) }); allocs != 0 {
		t.Fatalf("inflate allocated %.0f times per warmed iterate, want 0", allocs)
	}

	reset()
	inflate(work, r, prune)
	if work.NNZ() >= m.NNZ() {
		t.Fatalf("nothing pruned (%d of %d kept): the compaction went untested", work.NNZ(), m.NNZ())
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		var sum, max float64
		for _, v := range vals {
			sum += math.Pow(v, r)
			max = math.Max(max, math.Pow(v, r))
		}
		var wantCols []int32
		var wantVals []float64
		var kept float64
		for j, v := range vals {
			if p := math.Pow(v, r); sum != 0 && (p >= prune*sum || p == max) {
				wantCols, wantVals = append(wantCols, cols[j]), append(wantVals, p)
				kept += p
			}
		}
		gotCols, gotVals := work.Row(i)
		if !slices.Equal(gotCols, wantCols) {
			t.Fatalf("row %d keeps columns %v, want %v", i, gotCols, wantCols)
		}
		for j := range wantVals {
			if math.Abs(gotVals[j]-wantVals[j]/kept) > 1e-12 {
				t.Fatalf("row %d value %d = %g, want %g", i, j, gotVals[j], wantVals[j]/kept)
			}
		}
	}
}

// TestMCLStatsCoverOneRun: MCLResult.Stats sums this run's expansions only,
// so a run on a Context and Stats an earlier run already used reports what a
// run on fresh ones does.
func TestMCLStatsCoverOneRun(t *testing.T) {
	coo := matrix.FromCSR(gen.RMAT(7, 6, gen.G500Params, rand.New(rand.NewSource(31))))
	coo.Symmetrize()
	g := coo.ToCSR()
	flop := func(opt *spgemm.Options) int64 {
		t.Helper()
		res, err := MCL(g, &MCLOptions{SpGEMM: opt})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats == nil {
			t.Fatal("MCL asked for stats returned none")
		}
		return res.Stats.TotalWorker().Flop
	}
	shared := &spgemm.Options{Algorithm: spgemm.AlgHash, Context: spgemm.NewContext(), Stats: &spgemm.ExecStats{}}
	first := flop(shared)
	second := flop(shared)
	fresh := flop(&spgemm.Options{Algorithm: spgemm.AlgHash, Stats: &spgemm.ExecStats{}})
	if fresh == 0 || first != fresh || second != fresh {
		t.Fatalf("expansion flop: first run %d, second on the same Context %d, fresh Context %d; want all equal and > 0", first, second, fresh)
	}
}

func TestMCLOptionDefaults(t *testing.T) {
	var o *MCLOptions
	d := o.defaults()
	if d.Inflation != 2 || d.MaxIters != 100 {
		t.Fatalf("defaults = %+v", d)
	}
	d2 := (&MCLOptions{Inflation: 1.5}).defaults()
	if d2.Inflation != 1.5 || d2.Prune != 1e-4 {
		t.Fatalf("partial defaults = %+v", d2)
	}
}

func TestPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	m := matrix.Random(5, 5, 0.5, rng)
	p := Pattern(m)
	if p.NNZ() != m.NNZ() {
		t.Fatal("pattern changed structure")
	}
	for _, v := range p.Val {
		if v != 1 {
			t.Fatal("pattern value != 1")
		}
	}
}

// TestIteratesAreDonatedInputsAreNot: the iterative algorithms hand every
// consumed product back to their Context (spgemm.ContextG.Recycle leaves a
// donated matrix without arrays and a later product overwrites them), and the
// caller's graph must be neither. Two runs on one caller-supplied Context — the
// second building its products in the first's last donation — agree with each
// other and leave the input as it was.
func TestIteratesAreDonatedInputsAreNot(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	coo := matrix.FromCSR(gen.RMAT(7, 6, gen.G500Params, rng))
	coo.Symmetrize()
	g := coo.ToCSR()
	orig := g.Clone()
	sources := []int32{0, 5, 9, 33}
	opt := &spgemm.Options{Algorithm: spgemm.AlgHash, Context: spgemm.NewContext()}

	run := func() (clusters []int, bc []float64, levels [][]int32) {
		mcl, err := MCL(g, &MCLOptions{SpGEMM: opt})
		if err != nil {
			t.Fatal(err)
		}
		bc, err = Betweenness(g, sources, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		bfs, err := MSBFS(g, sources, opt)
		if err != nil {
			t.Fatal(err)
		}
		return mcl.Cluster, bc, bfs.Level
	}
	c1, b1, v1 := run()
	c2, b2, v2 := run()
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(v1, v2) {
		t.Error("a run on a Context holding the previous run's donation differs from that run")
	}
	if !matrix.Equal(g, orig) {
		t.Error("the caller's graph was modified")
	}
}

// componentGraph is a symmetrized R-MAT graph and the vertices of the
// component of its highest-degree vertex, where every source of the
// rebuild tests is drawn: there every source reaches every vertex of the
// component, so the component's vertices all finish.
func componentGraph(t *testing.T, scale, ef int, seed int64) (*matrix.CSR, []int32) {
	t.Helper()
	coo := matrix.FromCSR(gen.RMAT(scale, ef, gen.G500Params, rand.New(rand.NewSource(seed))))
	coo.Symmetrize()
	g := coo.ToCSR()
	hub := 0
	for v := range g.Rows {
		if g.RowNNZ(v) > g.RowNNZ(hub) {
			hub = v
		}
	}
	var comp []int32
	for v, l := range sequentialBFS(g, int32(hub)) {
		if l >= 0 {
			comp = append(comp, int32(v))
		}
	}
	return g, comp
}

// checkLevels fails unless res holds sequentialBFS's levels for every source.
func checkLevels(t *testing.T, g *matrix.CSR, sources []int32, res *BFSResult, label string) {
	t.Helper()
	for j, s := range sources {
		want := sequentialBFS(g, s)
		for v, row := range res.Level {
			if row[j] != want[v] {
				t.Fatalf("%s: source %d (vertex %d) at vertex %d: level %d, want %d", label, j, s, v, row[j], want[v])
			}
		}
	}
}

// rowsCovered is the rows the last level's product covered.
func rowsCovered(st *spgemm.ExecStats) int64 {
	var rows int64
	for _, ws := range st.Workers {
		rows += ws.Rows
	}
	return rows
}

// TestMSBFSTranspose: the scratch's Aᵀ, built in arrays that larger and
// smaller graphs filled before, has Transpose's structure, every value all
// ones, and keeps a stored zero as an entry.
func TestMSBFSTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := &bfsScratch{}
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(40)
		m := matrix.Random(n, n, 0.3, rng)
		if m.NNZ() > 0 {
			m.Val[rng.Intn(len(m.Val))] = 0
		}
		want := m.Transpose()
		s.transpose(m)
		got := &s.at
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if got.Rows != want.Rows || got.Cols != want.Cols || !got.Sorted ||
			!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("trial %d: pattern differs from Transpose's", trial)
		}
		for q, v := range got.Val {
			if v != ^uint64(0) {
				t.Fatalf("trial %d: Val[%d] = %#x, want all ones", trial, q, v)
			}
		}
	}
}

// TestMSBFSPrunedPull: where every source shares one component, its
// vertices finish and the pull matrix is rebuilt without them, so the last
// level's product covers fewer rows than the graph has, on both sides of the
// one-column route (k = 64) and with a partial last word (65, 130); the
// levels stay exact. A source that reaches nothing keeps every vertex
// unfinished: the pull is never rebuilt, and the levels stay exact too.
func TestMSBFSPrunedPull(t *testing.T) {
	g, comp := componentGraph(t, 9, 8, 305)
	rng := rand.New(rand.NewSource(306))
	isolated := int32(-1)
	for v := range g.Rows {
		if g.RowNNZ(v) == 0 {
			isolated = int32(v)
			break
		}
	}
	if isolated < 0 {
		t.Fatal("the graph has no isolated vertex")
	}
	for _, k := range []int{64, 65, 130} {
		sources := make([]int32, k)
		for j := range sources {
			sources[j] = comp[rng.Intn(len(comp))]
		}
		for _, alg := range []spgemm.Algorithm{spgemm.AlgHash, spgemm.AlgHeap} {
			label := fmt.Sprintf("k=%d %v", k, alg)
			var st spgemm.ExecStats
			res, err := MSBFS(g, sources, &spgemm.Options{Algorithm: alg, Workers: 2, Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			checkLevels(t, g, sources, res, label)
			if rows := rowsCovered(&st); rows >= int64(g.Rows) {
				t.Errorf("%s: the last level covered %d rows, want fewer than the graph's %d", label, rows, g.Rows)
			}

			stray := slices.Clone(sources)
			stray[k/2] = isolated
			res, err = MSBFS(g, stray, &spgemm.Options{Algorithm: alg, Workers: 2, Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			checkLevels(t, g, stray, res, label+" with a source that reaches nothing")
			if rows := rowsCovered(&st); rows != int64(g.Rows) {
				t.Errorf("%s with a source that reaches nothing: the last level covered %d rows, want all %d",
					label, rows, g.Rows)
			}
		}
	}
}

// TestMSBFSSteadyAllocs: a warm call allocates its result (the levels, their
// row headers and the sources) and little else: the scratch, Aᵀ included, is
// the pool's.
func TestMSBFSSteadyAllocs(t *testing.T) {
	g, comp := componentGraph(t, 10, 8, 307)
	const k = 64
	sources := comp[:k]
	opt := &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: 2}
	var err error
	call := func() { _, err = MSBFS(g, sources, opt) }
	call()
	bytes := testalloc.Bytes(call)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(g.Rows)
	if limit := 4*n*k + 24*n + 4*k + 16<<10; bytes > limit {
		t.Errorf("a warm call allocated %d B, want <= 4·n·k + 24·n + 4·k + 16 KiB = %d B", bytes, limit)
	}
}

// TestMSBFSConcurrent: calls on four goroutines at once, each with its own
// sources and Stats, match the same calls made one after another; each
// Stats is its own call's last level.
func TestMSBFSConcurrent(t *testing.T) {
	g, comp := componentGraph(t, 8, 8, 308)
	rng := rand.New(rand.NewSource(309))
	sets := make([][]int32, 4)
	want := make([][][]int32, len(sets))
	for i := range sets {
		sets[i] = make([]int32, 1+i*40) // 1, 41, 81 and 121 sources
		for j := range sets[i] {
			sets[i][j] = comp[rng.Intn(len(comp))]
		}
		res, err := MSBFS(g, sets[i], &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Level
	}
	got := make([][][]int32, len(sets))
	stats := make([]spgemm.ExecStats, len(sets))
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				res, err := MSBFS(g, sets[i], &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: 2, Stats: &stats[i]})
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = res.Level
			}
		}()
	}
	wg.Wait()
	for i := range sets {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("goroutine %d (%d sources): levels differ from the serial call's", i, len(sets[i]))
		}
		if st := stats[i]; st.Algorithm != spgemm.AlgHash || len(st.Workers) == 0 || st.Total <= 0 {
			t.Errorf("goroutine %d: Stats %v, want its last level's", i, st.String())
		}
	}
}
