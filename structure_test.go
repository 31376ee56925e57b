package repro

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
	"testing/fstest"
)

// The invariants below keep deleted paths deleted. Each row names what it
// protects and the CHANGES.md entry that made it true, and carries a mutant:
// the line that growing the path back would write. TestStructure checks every
// row twice, against the tree, which must pass, and against a file system
// that holds only the mutant, which the row must flag, so a row that cannot
// fail fails the test. This file is outside every row's globs.

// kind is what a row counts and how many of them the tree may hold.
type kind int

const (
	forbid kind = iota // lines matching re; the tree holds none
	count              // lines matching re; the tree holds exactly n
	absent             // paths matching the globs; the tree holds none
)

// plant is a mutant: one line written into the file at path. A count row's
// mutant is written n+1 times, every other row's once.
type plant struct{ path, line string }

type row struct {
	name   string
	kind   kind
	n      int      // the line count a count row pins
	paths  []string // globs: "**" spans directories, a leading "!" excludes
	re     string   // regexp matched against each line, whole-word unless noted
	why    string   // what the row protects
	change string   // the CHANGES.md entry that made it true
	mutant plant
}

var (
	// retired is where a retired Go name may not appear: the Go tree and the
	// two documents that describe it.
	retired = []string{"**/*.go", "!structure_test.go", "DESIGN.md", "README.md"}
	// productGo is the non-test Go outside the repo benchmark, which still
	// times Hash under the retired algorithm names.
	productGo = []string{"**/*.go", "!**/*_test.go", "!benchmark/**"}
)

var structure = []row{
	// Every two-phase product cuts budget stripes and takes Options.ShardSink,
	// and HashVec's chunked table lost to Hash on every measured cell.
	{name: "AlgSharded-one-line", kind: count, n: 1, paths: productGo, re: `\bAlgSharded\b`, change: "Sharded is Hash with a budget and a sink",
		why:    "nothing but its deprecated alias line asks for AlgSharded",
		mutant: plant{"internal/server/server.go", `opts.Algorithm = spgemm.AlgSharded`}},
	{name: "AlgSharded-alias", kind: count, n: 1, paths: []string{"internal/spgemm/spgemm.go"}, re: `^\s*AlgSharded = AlgHash$`, change: "Sharded is Hash with a budget and a sink",
		why:    "AlgSharded is an alias of AlgHash",
		mutant: plant{"internal/spgemm/spgemm.go", "\tAlgSharded = AlgHash"}},
	{name: "AlgHashVec-one-line", kind: count, n: 1, paths: productGo, re: `\bAlgHashVec\b`, change: "HashVec and the two-level table leave the product code",
		why:    "nothing but its deprecated alias line asks for AlgHashVec",
		mutant: plant{"internal/spgemm/recipe.go", `return AlgHashVec`}},
	{name: "AlgHashVec-alias", kind: count, n: 1, paths: []string{"internal/spgemm/spgemm.go"}, re: `^\s*AlgHashVec = AlgHash$`, change: "HashVec and the two-level table leave the product code",
		why:    "AlgHashVec is an alias of AlgHash",
		mutant: plant{"internal/spgemm/spgemm.go", "\tAlgHashVec = AlgHash"}},
	{name: "no-sinkFor", kind: forbid, paths: []string{"**/*.go", "!**/*_test.go", "!benchmark/**", "DESIGN.md", "README.md"}, re: `\bsinkFor\b`, change: "Sharded is Hash with a budget and a sink",
		why:    "no code decides which kernel gets the sink: every two-phase product takes it",
		mutant: plant{"internal/spgemm/driver.go", `sink := sinkFor(alg, opts)`}},
	{name: "no-sharded-name", kind: forbid, paths: productGo, re: `"sharded"`, change: "Sharded is Hash with a budget and a sink",
		why:    `"sharded" is no algorithm name`,
		mutant: plant{"internal/spgemm/spgemm.go", `AlgHash: "sharded",`}},
	{name: "no-hashvec-name", kind: forbid, paths: []string{"internal/spgemm/**/*.go", "internal/server/**/*.go", "!**/*_test.go"}, re: `"hashvec"`, change: "HashVec and the two-level table leave the product code",
		why:    `"hashvec" is no name the kernels or the server accept`,
		mutant: plant{"internal/server/server.go", `case "hashvec":`}},
	{name: "no-accum-hashvec", kind: absent, paths: []string{"internal/accum/hashvec.go"}, change: "HashVec and the two-level table leave the product code",
		why:    "the chunked table is a figure baseline in internal/bench/baseline",
		mutant: plant{"internal/accum/hashvec.go", "package accum"}},
	{name: "no-accum-twolevel", kind: absent, paths: []string{"internal/accum/twolevel.go"}, change: "HashVec and the two-level table leave the product code",
		why:    "kkmem's two-level table is a figure baseline in internal/bench/baseline",
		mutant: plant{"internal/accum/twolevel.go", "package accum"}},

	// The mask's row pointers bound every output row.
	{name: "no-masked-symbolic", kind: forbid, paths: []string{"internal/spgemm/**", "DESIGN.md", "README.md"}, re: `\b(maskedSymbolic|maskedRowCount)\b`, change: "Masked products are one phase",
		why:    "the masked product is a pattern count with no symbolic phase (MaskedCount); its counting pass stays deleted",
		mutant: plant{"internal/spgemm/hashrow.go", `n := maskedRowCount(i, a, b, mask)`}},

	// Triangle counting counts bits: the pattern count is the one masked kernel.
	{name: "no-masked-row-sums", kind: forbid, paths: []string{"internal/spgemm/**", "internal/graph/**", "DESIGN.md", "README.md"}, re: `\b(MaskedRowSums|maskedRows?|maskLoad|maskCompact|maskWidest|maskDense|maskHash)\b`, change: "Triangle counting counts bits",
		why:    "the one masked kernel is the pattern count (MaskedCount); no ring-general masked row, its col→slot index or its row sums come back",
		mutant: plant{"internal/spgemm/spgemm.go", "func MaskedRowSums[V semiring.Value, R semiring.Ring[V]](ring R, a, b, mask *matrix.CSRG[V], opt *OptionsG[V]) ([]V, error) {"}},

	// Open on the left, since ncols) <= is the same comparison.
	{name: "one-dense-rule", kind: count, n: 1, paths: []string{"internal/spgemm/**/*.go", "!**/*_test.go"}, re: `[Cc]ols\) <= `, change: "One rule for both phases",
		why:    "symbolic stamps, the numeric SPA and the one-pass route all ask denseRule",
		mutant: plant{"internal/spgemm/hashrow.go", `return int64(b.Cols) <= flop`}},

	// Every /v1 handler fills one record and leaves through one finish.
	{name: "no-nil-trace-fork", kind: forbid, paths: []string{"internal/server/server.go"}, re: `\b(rt|stats) != nil\b`, change: "One record per request",
		why:    "no handler forks on a nil-checked trace or stats pointer",
		mutant: plant{"internal/server/server.go", `if rt != nil {`}},
	{name: "no-traced-clock", kind: forbid, paths: retired, re: `\b(kernelClock|stampKernel)\b`, change: "One record per request",
		why:    "no clock read is conditional on tracing",
		mutant: plant{"internal/server/server.go", `start := kernelClock(rt)`}},
	{name: "no-hand-counted-request", kind: forbid, paths: []string{"internal/server/server.go", "DESIGN.md", "README.md"}, re: `\b(mRequests|mErrors)\b`, change: "One request ring",
		why:    "finish counts every request; no handler counts one by hand",
		mutant: plant{"internal/server/server.go", `s.mRequests.Inc()`}},

	// The server keeps its last 256 records and renders every trace view from them.
	{name: "no-reqtrace-file", kind: absent, paths: []string{"internal/obs/reqtrace.go"}, change: "One request ring",
		why:    "the request ring holds records; there is no second trace type",
		mutant: plant{"internal/obs/reqtrace.go", "package obs"}},
	{name: "no-slow-capturer", kind: forbid, paths: retired, re: `\b(SlowThreshold|SlowRing|SlowProfileDur|maybeProfile)\b`, change: "One request ring",
		why:    "no slow-request ring or on-spike profiler: a CPU profile is /debug/pprof/profile",
		mutant: plant{"internal/server/config.go", `SlowThreshold time.Duration`}},
	{name: "no-request-trace-type", kind: forbid, paths: retired, re: `\b(RequestTrace|RequestRing|NewRequestRing)\b`, change: "One request ring",
		why:    "the ring is always on and holds the records themselves",
		mutant: plant{"internal/obs/ring.go", `func NewRequestRing(n int) *RequestRing {`}},

	// A new pass or list arrives with the defect it caught.
	{name: "two-analyzers", kind: absent, paths: []string{"internal/analysis/passes", "internal/analysis/analysistest", "internal/analysis/loader.go", "internal/analysis/analysis.go"}, change: "The hotpath gate reads the compiled code",
		why:    "the hotpath promise is checked on the compiled code by the budget's [calls] section; no syntactic analyzer or framework of its own comes back",
		mutant: plant{"internal/analysis/passes/hotalloc/hotalloc.go", "package hotalloc"}},
	{name: "no-syntactic-gate", kind: forbid, paths: retired, re: `\b(hotalloc|deferhot|analysistest|runLint)\b`, change: "The hotpath gate reads the compiled code",
		why:    "spgemm-lint is the budget check alone, with -update its one flag",
		mutant: plant{"cmd/spgemm-lint/main.go", `os.Exit(runLint(".", patterns))`}},
	{name: "hotpath-where-budgeted", kind: forbid, paths: []string{"**/*.go", "!internal/accum/*.go", "!internal/mempool/*.go", "!internal/sched/*.go", "!internal/spgemm/*.go", "!internal/analysis/compilerfb/testdata/**", "!cmd/spgemm-lint/main_test.go", "!structure_test.go"}, re: `^\s*//spgemm:hotpath\s*$`, change: "The hotpath gate reads the compiled code",
		why:    "//spgemm:hotpath sits only in the packages the budget builds, and in the gate's own test fixtures",
		mutant: plant{"internal/graph/mcl.go", "//spgemm:hotpath"}},
	{name: "one-budget-file", kind: absent, paths: []string{"lint/*", "!lint/budget.txt"}, change: "Gates census",
		why:    "the compiler-feedback allowlists are one file, lint/budget.txt",
		mutant: plant{"lint/escapes.txt", "internal/spgemm"}},

	// The two-phase driver cuts one geometry and no global setter changes it.
	{name: "no-memmodel-init", kind: forbid, paths: []string{"internal/memmodel/*.go"}, re: `^func init\b`, change: "Census round three",
		why:    "memmodel installs nothing into the kernels at start-up",
		mutant: plant{"internal/memmodel/tiles.go", "func init() { InstallCacheParams() }"}},
	{name: "no-cache-setter", kind: forbid, paths: []string{"internal/spgemm/**", "DESIGN.md", "README.md"}, re: `\bSetCacheParams\b`, change: "Census round three",
		why:    "no process-global setter changes the kernels' geometry",
		mutant: plant{"internal/spgemm/context.go", "func SetCacheParams(l2 int64) {"}},
	{name: "no-spiller-interface", kind: forbid, paths: []string{"internal/spgemm/**", "DESIGN.md", "README.md"}, re: `\bshardSpiller\b`, change: "Census round three",
		why:    "Options.ShardSink is one concrete type, *SpillSink",
		mutant: plant{"internal/spgemm/shard.go", "type shardSpiller interface {"}},
	{name: "no-plan-perm", kind: forbid, paths: []string{"internal/spgemm/**", "DESIGN.md", "README.md"}, re: `\b(wantPerm|in\.perm)\b`, change: "Census round three",
		why:    "a Plan holds no column permutation of B",
		mutant: plant{"internal/spgemm/plan.go", "if in.perm != nil {"}},
	{name: "no-csc", kind: absent, paths: []string{"internal/matrix/csc.go"}, change: "Census round three",
		why:    "CSC storage had no caller",
		mutant: plant{"internal/matrix/csc.go", "package matrix"}},
	{name: "no-stencil", kind: absent, paths: []string{"internal/gen/stencil.go"}, change: "Census round three",
		why:    "the stencil generators had no caller",
		mutant: plant{"internal/gen/stencil.go", "package gen"}},
	{name: "no-tiled-kernel", kind: absent, paths: []string{"internal/spgemm/tiled.go"}, change: "Tiled leaves",
		why:    "Tiled lost to Hash on its own recipe cell",
		mutant: plant{"internal/spgemm/tiled.go", "package spgemm"}},
	{name: "no-tile-geometry", kind: absent, paths: []string{"internal/spgemm/tilegeom.go"}, change: "Tiled leaves",
		why:    "no column-tile widths are derived: stripes of whole rows are the one geometry",
		mutant: plant{"internal/spgemm/tilegeom.go", "package spgemm"}},
	{name: "no-column-split", kind: forbid, paths: retired, re: `\b(TileCols|TileHeavyFlop|HasHeavyRows|splitTiles|tiledHeavyNumeric)\b`, change: "Tiled leaves",
		why:    "the column split of B, its width, its overrides and the heavy-row detector stay deleted",
		mutant: plant{"internal/spgemm/spgemm.go", "\tTileCols int"}},

	// ExecStats.Phases is the driver's timeline and WorkerStats.Busy the workers'.
	{name: "no-process-tracer", kind: forbid, paths: retired, re: `\bobs\.(Active|SetActive|NewTracer)\b`, change: "One record per multiply",
		why:    "no process-wide tracer: a goroutine timeline is Go's own /debug/pprof/trace",
		mutant: plant{"internal/spgemm/driver.go", "if tr := obs.Active(); tr != nil {"}},
	{name: "no-named-regions", kind: forbid, paths: retired, re: `\b(RunWorkersNamed|ParallelForNamed)\b`, change: "One record per multiply",
		why:    "no region name nobody reads",
		mutant: plant{"internal/sched/pool.go", `sched.ParallelForNamed("numeric", n, w, body)`}},
	{name: "no-driver-lane", kind: forbid, paths: retired, re: `\bDriverLane\b`, change: "One record per multiply",
		why:    "the driver's timeline is ExecStats.Phases, not a tracer lane",
		mutant: plant{"internal/obs/obs.go", "const DriverLane = -1"}},

	{name: "msbfs-in-place", kind: forbid, paths: []string{"internal/graph/bfs.go"}, re: `\b(COOG|ToCSR|MapValues)\b`, change: "Bit-parallel MSBFS",
		why:    "MSBFS keeps each level's fresh words as the next frontier; no per-level COO rebuild",
		mutant: plant{"internal/graph/bfs.go", "next = coo.ToCSR()"}},

	// No process keeps a recorded baseline.
	{name: "no-load-command", kind: absent, paths: []string{"cmd/spgemm-load"}, change: "The perf sentry baselines itself",
		why:    "the served path's load test is the repo benchmark's served_* workloads",
		mutant: plant{"cmd/spgemm-load", "package main"}},
	{name: "no-bench-spgemm-json", kind: absent, paths: []string{"BENCH_spgemm.json"}, change: "The perf sentry baselines itself",
		why:    "no recorded baseline file exists",
		mutant: plant{"BENCH_spgemm.json", "{}"}},
	{name: "no-bench-server-json", kind: absent, paths: []string{"BENCH_server.json"}, change: "The perf sentry baselines itself",
		why:    "no recorded baseline file exists",
		mutant: plant{"BENCH_server.json", "{}"}},
	{name: "no-recorded-baseline", kind: forbid, paths: retired, re: `\b(LoadSentryBaseline|SentryBaseline|WriteSnapshot|ReuseSnapshot)\b`, change: "The perf sentry baselines itself",
		why:    "no baseline writer or loader",
		mutant: plant{"internal/server/sentry.go", "func LoadSentryBaseline(path string) error {"}},
	{name: "no-test-only-setter", kind: forbid, paths: retired, re: `\bSetShardedAutoBytes\b`, change: "The perf sentry baselines itself",
		why:    "the kernel package exports no setter only tests call",
		mutant: plant{"internal/spgemm/shard.go", "func SetShardedAutoBytes(n int64) {"}},

	// Liveness is /healthz; throughput per algorithm is on /metrics.
	{name: "no-perf-sentry", kind: forbid, paths: []string{"**/*.go", "!**/*_test.go"}, re: `(?i)\b(sentry|sentryConfig|AlgHealth)\b|server_sentry_`, change: "The perf sentry leaves",
		why:    "no watchdog degrades /healthz: a monitor alerts on server_request_seconds{alg} and server_multiply_flop_total",
		mutant: plant{"internal/server/sentry.go", "type sentry struct {"}},

	// One owner per job.
	{name: "core-two-forwards", kind: count, n: 2, paths: []string{"internal/core/core.go"}, re: `^func\b`, change: "One owner per job",
		why:    "internal/core is the two deprecated forwards the repo benchmark calls",
		mutant: plant{"internal/core/core.go", "func Flop(a, b *matrix.CSR) int64 { return spgemm.Flop(a, b) }"}},
	{name: "core-no-decls", kind: forbid, paths: []string{"internal/core/core.go"}, re: `^(type|const|var)\b`, change: "One owner per job",
		why:    "every other name is spgemm's",
		mutant: plant{"internal/core/core.go", "type Options = spgemm.Options"}},
	{name: "no-apps-experiment", kind: absent, paths: []string{"internal/bench/apps.go"}, change: "One owner per job",
		why:    "spgemm-bench runs the paper's experiments; the repo benchmark times the graph apps",
		mutant: plant{"internal/bench/apps.go", "package bench"}},
	{name: "no-reuse-experiment", kind: absent, paths: []string{"internal/bench/reuse.go"}, change: "One owner per job",
		why:    "spgemm-bench runs the paper's experiments; the repo benchmark times reuse",
		mutant: plant{"internal/bench/reuse.go", "package bench"}},
	{name: "no-scratch-checkout", kind: forbid, paths: retired, re: `\bmempool\.(Acquire|Release|Scratch|Pool|NewPool)\b`, change: "One owner per job",
		why:    "the Context owns its scratch; there is no process-wide checkout",
		mutant: plant{"internal/spgemm/context.go", "s := mempool.Acquire(n)"}},
	{name: "no-worker-scratch", kind: forbid, paths: retired, re: `\bworkerScratch\b`, change: "One owner per job",
		why:    "no per-worker scratch pool beside the Context's slots",
		mutant: plant{"internal/spgemm/context.go", "\tworkerScratch []mempool.Slot"}},
	{name: "mempool-no-pool", kind: forbid, paths: []string{"internal/mempool/*.go"}, re: `^(func|type) (Acquire|Release|Scratch|Pool|NewPool)\b`, change: "One owner per job",
		why:    "mempool is LiveBytes, Grow and Figure 4, with no pool of its own",
		mutant: plant{"internal/mempool/pool.go", "type Pool struct {"}},
	{name: "no-breakdown-mode", kind: forbid, paths: []string{"**/*.go", "!structure_test.go"}, re: `"breakdown"`, change: "One owner per job",
		why:    "Figure 8's phase table is -exp fig8",
		mutant: plant{"cmd/spgemm-bench/main.go", `flag.Bool("breakdown", false, "")`}},

	// Nothing without a caller.
	{name: "no-stripe-count-knob", kind: forbid, paths: retired, re: `\bShardStripes\b`, change: "Nothing without a caller",
		why:    "a two-phase product's stripe count comes from its flop and ShardMemBudget",
		mutant: plant{"internal/spgemm/spgemm.go", "\tShardStripes int"}},
	{name: "no-unused-graph-apps", kind: forbid, paths: retired, re: `\b(LabelPropagation|ClusteringCoefficients)\b`, change: "Nothing without a caller",
		why:    "label propagation and clustering coefficients had no example, command, route or workload",
		mutant: plant{"internal/graph/labelprop.go", "func LabelPropagation(a *matrix.CSR) []int32 {"}},
	{name: "no-outofcore-file", kind: absent, paths: []string{"**/outofcore.go"}, change: "Nothing without a caller",
		why:    "-exp outofcore stays deleted; TestSpillSinkShardedMatchesHash asserts the spill bounds",
		mutant: plant{"internal/bench/outofcore.go", "package bench"}},
	{name: "no-labelprop-file", kind: absent, paths: []string{"**/labelprop.go"}, change: "Nothing without a caller",
		why:    "label propagation had no caller",
		mutant: plant{"internal/graph/labelprop.go", "package graph"}},
	{name: "no-clustercoef-file", kind: absent, paths: []string{"**/clustercoef.go"}, change: "Nothing without a caller",
		why:    "clustering coefficients had no caller",
		mutant: plant{"internal/graph/clustercoef.go", "package graph"}},
	{name: "no-growing-table", kind: forbid, paths: retired, re: `\b(SetGrow|growRehash|upsertGrow)\b`, change: "No knob without a second caller",
		why:    "every hash table is sized once from its row bound and never grows, kkmem's level 2 too",
		mutant: plant{"internal/bench/baseline/twolevel.go", "l2.SetGrow(true)"}},
	{name: "no-sim-model", kind: forbid, paths: retired, re: `\bModeledTimeWithSim\b`, change: "No knob without a second caller",
		why:    "the memmodel helper only tests called stays deleted",
		mutant: plant{"internal/memmodel/model.go", "func ModeledTimeWithSim(sim SimStats) float64 {"}},
	{name: "no-context-pool", kind: forbid, paths: []string{"internal/spgemm/context.go"}, re: `^\s+(Pool\s|\*?sched\.Pool$)`, change: "No knob without a second caller",
		why:    "every parallel region runs on the process-wide pool; a Context has no pool of its own",
		mutant: plant{"internal/spgemm/context.go", "\tPool *sched.Pool"}},
	{name: "sched-one-body", kind: forbid, paths: []string{"internal/sched/**/*.go"}, re: `^func \([a-z]+ \*Pool\) (ParallelFor|PrefixSum|BalancedPartitionInto)\(`, change: "No knob without a second caller",
		why:    "each sched entry point has one body, the free function",
		mutant: plant{"internal/sched/pool.go", "func (p *Pool) ParallelFor(n, w int, body func(lo, hi int)) {"}},
	{name: "matrix-no-add", kind: forbid, paths: []string{"internal/matrix/**/*.go"}, re: `^func (Add|Hadamard)\(`, change: "No knob without a second caller",
		why:    "matrix.Add and the float64 Hadamard wrapper had no caller but tests",
		mutant: plant{"internal/matrix/ops.go", "func Add(a, b *CSR) *CSR {"}},
	{name: "matrix-no-scale", kind: forbid, paths: []string{"internal/matrix/**/*.go"}, re: `^func \([a-z]+ \*[A-Za-z]+(\[V\])?\) (Scale|RowSums)\(`, change: "No knob without a second caller",
		why:    "Scale and RowSums had no caller but tests",
		mutant: plant{"internal/matrix/ops.go", "func (m *CSRG[V]) RowSums() []V {"}},

	// The matrix store and the plan cache are one bounded LRU.
	{name: "server-one-lru", kind: count, n: 1, paths: []string{"internal/server/**/*.go", "!**/*_test.go"}, re: `"container/list"`, change: "The matrix store and the plan cache are one bounded LRU",
		why:    "the store and the plan cache are two instances of lru.go's cache, not two copies of its policy",
		mutant: plant{"internal/server/store.go", "\t\"container/list\""}},
	{name: "no-plan-cache-setter", kind: forbid, paths: retired, re: `\bSetMaxBytes\b`, change: "The matrix store and the plan cache are one bounded LRU",
		why:    "both bounds of a cache are fixed when it is built",
		mutant: plant{"internal/server/server.go", "\ts.plans.SetMaxBytes(cfg.MaxStoreBytes)"}},
	{name: "no-cumulative-stats", kind: forbid, paths: retired, re: `\b(CumulativeStats|cumCalls)\b`, change: "The matrix store and the plan cache are one bounded LRU",
		why:    "a Context keeps no stats of its callers; MCL sums its own expansions with ExecStats.Add",
		mutant: plant{"internal/graph/mcl.go", "\t\tres.Stats = inner.Context.CumulativeStats()"}},

	// Masks have one consumer.
	{name: "no-options-mask", kind: forbid, paths: []string{"**/*.go", "!**/*_test.go"}, re: `\bMask:|\bopt\.Mask\b|^\s+Mask\s+\*`, change: "Masks have one consumer",
		why:    "the mask is an argument of MaskedCount, not an option of every product",
		mutant: plant{"internal/graph/triangles.go", "\topt.Algorithm, opt.Mask = spgemm.AlgHash, l"}},
	{name: "no-mask-need", kind: forbid, paths: []string{"internal/spgemm/**", "DESIGN.md", "README.md"}, re: `\bmaskNeed\b`, change: "Masks have one consumer",
		why:    "masked row sums keep one window per worker; no window is sized for a stored masked row",
		mutant: plant{"internal/spgemm/context.go", "\t\t\twin[s+1] = win[s] + maskNeed(in.mask, in.flopRow, lo, hi)"}},
	{name: "no-plan-execution-state", kind: forbid, paths: retired, re: `\b(Execute|Invalidate)\(\)|\bPlan\.(Execute|Invalidate)\b`, change: "Masks have one consumer",
		why:    "a Plan holds no Context, stats or validity flag: every execution names its own (ExecuteIn)",
		mutant: plant{"internal/spgemm/plan.go", "func (p *Plan) Invalidate() { p.valid = false }"}},

	// Figure 10 prints only what its memory model computes.
	{name: "no-cachesim-file", kind: absent, paths: []string{"**/cachesim.go"}, change: "The cache simulator leaves",
		why:    "the cache simulator replayed an accumulator layout no kernel runs, for two diagnostic columns",
		mutant: plant{"internal/memmodel/cachesim.go", "package memmodel"}},
	{name: "no-cache-simulator", kind: forbid, paths: retired, re: `\b(SimulateHashSpGEMM|NewCache|CacheConfig|KNLTileL2|SimStats)\b`, change: "The cache simulator leaves",
		why:    "memmodel is the stanza probe and the latency-bandwidth pipe; no cache is simulated",
		mutant: plant{"internal/bench/synthetic.go", "\t\tsim := memmodel.SimulateHashSpGEMM(a, a, memmodel.KNLTileL2, 1<<21)"}},
	{name: "no-deal-stripes", kind: forbid, paths: retired, re: `\bdealStripes\b`, change: "The cache simulator leaves",
		why:    "eachStripe deals every parallel region's stripes; no region readies the cursor itself",
		mutant: plant{"internal/spgemm/driver.go", "\tctx.dealStripes(in.workers)"}},

	// Every parallel region claims its stripes in one place, and a Heap Plan executes through execute.
	{name: "one-stripe-claim", kind: count, n: 1, paths: []string{"internal/spgemm/**/*.go", "!**/*_test.go"}, re: `\bcursor\.Add\(`, change: "One stripe claim, two executors",
		why:    "the cursor advances in eachStripe alone, the one site a cancellation poll needs",
		mutant: plant{"internal/spgemm/heap.go", "\t\tfor s := w; s < in.stripes(); s = int(ctx.cursor.Add(1)) - 1 {"}},
	// Fresh output arrays skip make's clearing through one pull of the
	// runtime's allocator, behind one helper with one caller.
	{name: "one-linkname", kind: count, n: 1, paths: []string{"**/*.go", "!**/*_test.go"}, re: `^//go:linkname\b`, change: "Products draw their output arrays uninitialized",
		why:    "the tree reaches into the runtime once, for mallocgc, whose signature the runtime keeps for outside callers",
		mutant: plant{"internal/matrix/wire.go", "//go:linkname memmove runtime.memmove"}},
	{name: "linkname-in-uninit", kind: count, n: 1, paths: []string{"internal/spgemm/uninit.go"}, re: `^//go:linkname\b`, change: "Products draw their output arrays uninitialized",
		why:    "the one go:linkname is uninit's, in the file that holds it alone",
		mutant: plant{"internal/spgemm/uninit.go", "//go:linkname mallocgc runtime.mallocgc"}},
	{name: "one-uninit-call", kind: count, n: 1, paths: []string{"**/*.go", "!**/*_test.go"}, re: `\buninit\[[\w.]+\]\(`, change: "Products draw their output arrays uninitialized",
		why:    "drawOutput alone draws arrays uninitialized: a product's arrays are the ones every kernel writes in full",
		mutant: plant{"internal/spgemm/context.go", "\t\tc.tmpVals = uninit[V](n)"}},
	// A one-shot Hash product into one column is one pass over A.
	{name: "one-column-route-call", kind: count, n: 1, paths: []string{"internal/spgemm/**/*.go", "!**/*_test.go"}, re: `\bcolumnProduct\(`, change: "A product into one column is one pass",
		why:    "MultiplyRing alone takes the one-column route: a Plan, the pattern count, forced Heap and a sink or budget cut keep their own geometry",
		mutant: plant{"internal/spgemm/plan.go", "\t\treturn columnProduct(ring, a, b, opt, ctx), nil"}},
	{name: "no-claim-wrappers", kind: forbid, paths: []string{"internal/spgemm/**", "DESIGN.md", "README.md"}, re: `\b(nextStripe|runWorkers|inspectExecute|onePassExecute|bindOutput)\b`, change: "One stripe claim, two executors",
		why:    "no region claims stripes by hand, and the one-shot driver, the one-pass route and the output binding are inlined where they are known",
		mutant: plant{"internal/spgemm/driver.go", "\tctx.runWorkers(in.workers, func(w int) {"}},

	// Plus-times multiplies float64 alone, the paper's value type.
	{name: "no-narrow-plus-times", kind: forbid, paths: retired, re: `\b(PlusTimesF32|PlusTimesI64|AsF32|AsI64|ApproxF32|TolF32)\b`, change: "One native ring",
		why:    "no product runs plus-times over float32 or int64, and no test views an operand that way",
		mutant: plant{"internal/graph/triangles.go", "\tb, err := spgemm.MultiplyRing(semiring.PlusTimesI64{}, li, ui, &inner)"}},
	{name: "one-native-ring", kind: count, n: 1, paths: []string{"internal/spgemm/hashrow.go"}, re: `\bcase semiring\.PlusTimes`, change: "One native ring",
		why:    "bodiesFor hands ptBodies to PlusTimesF64 alone; every other ring folds through its dictionary",
		mutant: plant{"internal/spgemm/hashrow.go", "\tcase semiring.PlusTimesF32:"}},
	{name: "value-set", kind: count, n: 1, paths: []string{"internal/semiring/ring.go"}, re: `^\s*bool \| int64 \| uint64 \| float64$`, change: "One native ring",
		why:    "semiring.Value is exactly bool, int64, uint64 and float64: float32 left with its ring",
		mutant: plant{"internal/semiring/ring.go", "\tbool | int64 | uint64 | float64"}},
}

// allowed is the number of hits the tree may hold.
func (r row) allowed() int {
	if r.kind == count {
		return r.n
	}
	return 0
}

// covers reports whether name matches one of the row's globs and none of
// its "!" exclusions.
func (r row) covers(name string) bool {
	in := false
	for _, g := range r.paths {
		if ex, ok := strings.CutPrefix(g, "!"); ok {
			if matchGlob(ex, name) {
				return false
			}
		} else if matchGlob(g, name) {
			in = true
		}
	}
	return in
}

// scan returns the row's hits in fsys: the matching paths of an absent row,
// the matching lines, as path:line: text, of the others.
func (r row) scan(fsys fs.FS) ([]string, error) {
	re, err := regexp.Compile(r.re)
	if err != nil {
		return nil, err
	}
	var hits []string
	err = fs.WalkDir(fsys, ".", func(name string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && name == ".git":
			return fs.SkipDir
		case !r.covers(name):
			return nil
		case r.kind == absent:
			hits = append(hits, name)
			return nil
		case d.IsDir():
			return nil
		}
		data, err := fs.ReadFile(fsys, name)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if re.MatchString(line) {
				hits = append(hits, fmt.Sprintf("%s:%d: %s", name, i+1, strings.TrimSpace(line)))
			}
		}
		return nil
	})
	return hits, err
}

// matchGlob reports whether name matches glob, where a "**" segment spans
// any number of path segments, none included, and every other segment is a
// path.Match pattern.
func matchGlob(glob, name string) bool {
	return matchSegments(strings.Split(glob, "/"), strings.Split(name, "/"))
}

func matchSegments(glob, name []string) bool {
	for ; len(glob) > 0; glob, name = glob[1:], name[1:] {
		if glob[0] == "**" {
			for i := range len(name) + 1 {
				if matchSegments(glob[1:], name[i:]) {
					return true
				}
			}
			return false
		}
		if len(name) == 0 {
			return false
		}
		if ok, _ := path.Match(glob[0], name[0]); !ok {
			return false
		}
	}
	return len(name) == 0
}

// docPath is a repository path as the documents name one: a path under a
// top-level directory, or a root file with an upper-case name.
var docPath = regexp.MustCompile(`\b(?:(?:internal|cmd|examples|benchmark|lint)(?:/[\w-]+)+(?:\.(?:go|md|txt|json|mod|yml))?|[A-Z][A-Za-z_]*\.(?:md|json))\b`)

// missingDocPaths returns each path that DESIGN.md, README.md or doc.go
// names and fsys does not hold, as doc:line: path.
func missingDocPaths(fsys fs.FS) ([]string, error) {
	var missing []string
	for _, doc := range []string{"DESIGN.md", "README.md", "doc.go"} {
		data, err := fs.ReadFile(fsys, doc)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, p := range docPath.FindAllString(line, -1) {
				if _, err := fs.Stat(fsys, p); err != nil {
					missing = append(missing, fmt.Sprintf("%s:%d: %s", doc, i+1, p))
				}
			}
		}
	}
	return missing, nil
}

func TestStructure(t *testing.T) {
	tree := os.DirFS(".")
	changes, err := fs.ReadFile(tree, "CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range structure {
		t.Run(r.name, func(t *testing.T) {
			t.Run("tree", func(t *testing.T) {
				if r.covers("structure_test.go") {
					t.Fatal("the row scans the file that holds the table")
				}
				if !strings.Contains(strings.ToLower(string(changes)), strings.ToLower(r.change)) {
					t.Errorf("CHANGES.md has no entry %q", r.change)
				}
				hits, err := r.scan(tree)
				if err != nil {
					t.Fatal(err)
				}
				if len(hits) != r.allowed() {
					t.Errorf("%d hits, want %d: %s (made true by %q)\n%s",
						len(hits), r.allowed(), r.why, r.change, strings.Join(hits, "\n"))
				}
			})
			t.Run("mutant", func(t *testing.T) {
				planted := r.allowed() + 1
				fsys := fstest.MapFS{r.mutant.path: {Data: []byte(strings.Repeat(r.mutant.line+"\n", planted))}}
				hits, err := r.scan(fsys)
				if err != nil {
					t.Fatal(err)
				}
				if len(hits) != planted {
					t.Errorf("%d hits in a file system holding %d copies of the mutant %s: %q", len(hits), planted, r.mutant.path, r.mutant.line)
				}
			})
		})
	}
	t.Run("doc-paths", func(t *testing.T) {
		t.Run("tree", func(t *testing.T) {
			missing, err := missingDocPaths(tree)
			if err != nil {
				t.Fatal(err)
			}
			if len(missing) > 0 {
				t.Errorf("the documents name paths the tree does not hold:\n%s", strings.Join(missing, "\n"))
			}
		})
		t.Run("mutant", func(t *testing.T) {
			fsys := fstest.MapFS{
				"DESIGN.md": {Data: []byte("Row views live in internal/matrix/stripe.go.\n")},
				"README.md": {},
				"doc.go":    {},
			}
			missing, err := missingDocPaths(fsys)
			if err != nil {
				t.Fatal(err)
			}
			if len(missing) != 1 {
				t.Errorf("missing %q, want the one stale path", missing)
			}
		})
	})
}
