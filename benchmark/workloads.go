package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// variant says how one operation is issued. The zero value is what the
// end-to-end run measures: AlgAuto (the default users get), the workload's
// own worker count, Options.Stats nil.
type variant struct {
	alg     spgemm.Algorithm  // a concrete value forces that kernel
	workers int               // > 0 overrides the workload's worker count
	stats   *spgemm.ExecStats // non-nil on traced operations
}

// workersOr returns the variant's worker count, own when it sets none.
func (v variant) workersOr(own int) int {
	if v.workers > 0 {
		return v.workers
	}
	return own
}

// repProduct is the float64 product the layer probes replay: the operation
// itself on the square workloads, its dominant multiply elsewhere.
type repProduct struct {
	a, b *matrix.CSR
	opt  spgemm.Options // AlgAuto with the op's Unsorted / UseCase / Workers
	// planCached says the operation replays a cached Plan, which takes the
	// recipe and the inspector off its path (served_hot).
	planCached bool
	// spill asks for the out-of-core probe on this product (g500_sq_sorted).
	spill bool
}

// instance is one workload set up from one seed.
type instance interface {
	// op runs operation i; the caller times it. tr is nil unless traced.
	op(i int, v variant, tr *opTrace) (any, error)
	// verify checks op i's result against the oracle, outside the timer.
	verify(i int, res any) bool
	// kernel runs the operation's dominant multiply directly, as the op
	// issues it, so that st describes one whole kernel call.
	kernel(st *spgemm.ExecStats) error
	rep() repProduct
	// layerMetrics adds the per-layer metrics only this workload has.
	layerMetrics(m metricSet)
	close() error
}

// workloadDef names a workload and says why it is in the benchmark. The
// names are cited verbatim by later issues; BENCHMARK.json repeats them.
type workloadDef struct {
	name string
	why  string
	// served workloads run W closed-loop clients against the in-process
	// server and need 1000 timed ops; library workloads run one caller and
	// need 100.
	served   bool
	roundOps int
	setup    func(rng *rand.Rand, w int) (instance, error)
}

var workloads = []workloadDef{
	{
		name: "g500_sq_sorted",
		why: "G500 R-MAT s11/ef16 A*A, sorted output, reused Context, W workers: skewed rows, compression ratio ~2.9, so " +
			"hash accumulate + per-row sort dominate and flop-balanced partitioning matters",
		roundOps: 20,
		setup: func(rng *rand.Rand, w int) (instance, error) {
			a := gen.RMAT(11, 16, gen.G500Params, rng)
			return newSquare(a, spgemm.Options{Workers: w, Context: core.NewContext()}, true), nil
		},
	},
	{
		name: "er_sq_unsorted",
		why: "ER s15/ef8 shuffled rows, A*A, unsorted output, 1 worker: compression ratio 1.00, B (3.1 MB) past L2, so " +
			"symbolic, output allocation, B-row streaming dominate; single-thread baseline, bypasses sched",
		roundOps: 10,
		setup: func(rng *rand.Rand, w int) (instance, error) {
			a := gen.Unsorted(gen.ER(15, 8, rng), rng)
			return newSquare(a, spgemm.Options{Workers: 1, Unsorted: true}, false), nil
		},
	},
	{
		name: "msbfs_tallskinny",
		why: "graph.MSBFS, G500 s11/ef16, 64 seeded sources, W workers: paper 5.5, square x tall-skinny over the bool ring, " +
			"many small multiplies per op, so recipe, partition, fork/join and Transpose dominate",
		roundOps: 10,
		setup:    newMSBFS,
	},
	{
		name: "triangle_lu",
		why: "graph.CountFromLU on L,U of G500 s13/ef16, W workers: paper 5.6, the only workload on the int64 ring and the " +
			"L*U (.* L) pipeline",
		roundOps: 10,
		setup:    newTriangle,
	},
	{
		name: "served_hot",
		why: "W closed-loop clients POST /v1/multiply (return meta) on 4 hot G500 s10/ef16 pairs: every request is a " +
			"plan-cache hit, so numeric replay, ctxpool, plancache and JSON are what remain",
		served:   true,
		roundOps: 100,
		setup:    func(rng *rand.Rand, w int) (instance, error) { return newServed(rng, w, false) },
	},
	{
		name: "served_churn",
		why: "W closed-loop clients upload a fresh SPGB B_j (G500 s9/ef16), multiply A*B_j (return matrix), store sized to " +
			"~16 matrices: wire decode, SHA-256, eviction, plan build per op, wire encode dominate",
		served:   true,
		roundOps: 50,
		setup:    func(rng *rand.Rand, w int) (instance, error) { return newServed(rng, w, true) },
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// square is A*A through core.Multiply: g500_sq_sorted and er_sq_unsorted
// differ only in the input and the options.
type square struct {
	a, want *matrix.CSR
	opt     spgemm.Options
	spill   bool
	pos     []int64
}

func newSquare(a *matrix.CSR, opt spgemm.Options, spill bool) *square {
	return &square{a: a, want: matrix.NaiveMultiply(a, a), opt: opt, spill: spill, pos: newPos(a.Cols)}
}

func (s *square) op(_ int, v variant, tr *opTrace) (any, error) {
	opt := s.opt
	opt.Algorithm, opt.Stats, opt.Workers = v.alg, v.stats, v.workersOr(s.opt.Workers)
	c, err := core.Multiply(s.a, s.a, &opt)
	tr.kernel(time.Now(), v.stats)
	return c, err
}

func (s *square) verify(_ int, res any) bool {
	c, _ := res.(*matrix.CSR)
	return sameProduct(c, s.want, s.pos)
}

func (s *square) kernel(st *spgemm.ExecStats) error {
	_, err := s.op(0, variant{stats: st}, nil)
	return err
}

func (s *square) rep() repProduct        { return repProduct{a: s.a, b: s.a, opt: s.opt, spill: s.spill} }
func (s *square) layerMetrics(metricSet) {}
func (s *square) close() error           { return nil }

// msbfs is graph.MSBFS from 64 sources.
type msbfs struct {
	g       *matrix.CSR
	src     []int32
	want    [][]int32
	depth   int32
	workers int
	// The heaviest level's product Aᵀ·F, built on first use by the layer
	// probes (MSBFS itself overwrites its ExecStats at every level, so a
	// whole-op breakdown is not readable from outside).
	at, f *matrix.CSRG[bool]
}

const msbfsSources = 64

func newMSBFS(rng *rand.Rand, w int) (instance, error) {
	g := gen.RMAT(11, 16, gen.G500Params, rng)
	// Sources are drawn from the vertices that have out-edges: an R-MAT
	// graph leaves many vertices isolated, and a source that reaches
	// nothing would make the work per op depend on the draw.
	var cand []int32
	for v := 0; v < g.Rows; v++ {
		if g.RowNNZ(v) > 0 {
			cand = append(cand, int32(v))
		}
	}
	if len(cand) < msbfsSources {
		return nil, fmt.Errorf("msbfs: only %d vertices with out-edges", len(cand))
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	m := &msbfs{g: g, src: cand[:msbfsSources], workers: w}
	m.want, m.depth = bfsLevels(g, m.src)
	return m, nil
}

func (m *msbfs) op(_ int, v variant, tr *opTrace) (any, error) {
	res, err := graph.MSBFS(m.g, m.src, &spgemm.Options{Algorithm: v.alg, Workers: v.workersOr(m.workers), Stats: v.stats})
	// The stats MSBFS hands back are those of its last level only.
	tr.kernel(time.Now(), v.stats)
	return res, err
}

func (m *msbfs) verify(_ int, res any) bool {
	r, _ := res.(*graph.BFSResult)
	if r == nil || len(r.Level) != len(m.want) {
		return false
	}
	for v, row := range m.want {
		got := r.Level[v]
		if len(got) != len(row) {
			return false
		}
		for s, l := range row {
			if got[s] != l {
				return false
			}
		}
	}
	return true
}

// heaviest builds Aᵀ and the frontier of the level with the most
// (vertex, source) pairs.
func (m *msbfs) heaviest() {
	if m.at != nil {
		return
	}
	count := make([]int, m.depth+1)
	for _, row := range m.want {
		for _, l := range row {
			if l >= 0 {
				count[l]++
			}
		}
	}
	best := 0
	for l, c := range count {
		if c > count[best] {
			best = l
		}
	}
	f := matrix.NewCOOG[bool](m.g.Rows, len(m.src))
	for v, row := range m.want {
		for s, l := range row {
			if int(l) == best {
				f.Append(int32(v), int32(s), true)
			}
		}
	}
	m.at = matrix.MapValues(m.g.Transpose(), func(x float64) bool { return x != 0 })
	m.f = f.ToCSR()
}

func (m *msbfs) kernel(st *spgemm.ExecStats) error {
	m.heaviest()
	_, err := spgemm.MultiplyRing(semiring.OrAndBool{}, m.at, m.f, &spgemm.OptionsG[bool]{
		Workers: m.workers, UseCase: spgemm.UseTallSkinny, Stats: st})
	return err
}

func (m *msbfs) rep() repProduct {
	m.heaviest()
	one := func(b bool) float64 { return 1 }
	return repProduct{a: matrix.MapValues(m.at, one), b: matrix.MapValues(m.f, one),
		opt: spgemm.Options{Workers: m.workers, UseCase: spgemm.UseTallSkinny}}
}

func (m *msbfs) layerMetrics(ms metricSet) {
	ms.set("graph.levels", float64(m.depth))
	// What MSBFS does before its first multiply, replayed from outside.
	ms.set("graph.prep_s", median(timeN(5, func() {
		matrix.MapValues(m.g.Transpose(), func(x float64) bool { return x != 0 })
	})))
}

func (m *msbfs) close() error { return nil }

// triangle is graph.CountFromLU on the factors PrepareTriangles builds in
// setup.
type triangle struct {
	l, u    *matrix.CSR
	want    int64
	workers int
}

func newTriangle(rng *rand.Rand, w int) (instance, error) {
	adj := gen.RMAT(13, 16, gen.G500Params, rng)
	prep, err := graph.PrepareTriangles(adj)
	if err != nil {
		return nil, err
	}
	return &triangle{l: prep.L, u: prep.U, want: countTriangles(adj), workers: w}, nil
}

func (t *triangle) op(_ int, v variant, tr *opTrace) (any, error) {
	n, err := graph.CountFromLU(t.l, t.u, &spgemm.Options{
		Algorithm: v.alg, UseCase: spgemm.UseTriangle, Workers: v.workersOr(t.workers), Stats: v.stats})
	// The multiply is not the last thing CountFromLU does (a mask filter
	// and a reduction follow), so the kernel span is placed approximately;
	// its length, and so every self time, is exact.
	tr.kernel(time.Now(), v.stats)
	return n, err
}

func (t *triangle) verify(_ int, res any) bool {
	n, ok := res.(int64)
	return ok && n == t.want
}

func (t *triangle) kernel(st *spgemm.ExecStats) error {
	_, err := t.op(0, variant{stats: st}, nil)
	return err
}

func (t *triangle) rep() repProduct {
	return repProduct{a: t.l, b: t.u, opt: spgemm.Options{Workers: t.workers, UseCase: spgemm.UseTriangle}}
}

func (t *triangle) layerMetrics(ms metricSet) { ms.set("graph.mask_nnz", float64(t.l.NNZ())) }
func (t *triangle) close() error              { return nil }
