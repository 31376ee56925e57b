package spgemm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/mempool"
	"repro/internal/semiring"
)

// ErrPlanStale is returned by Plan.ExecuteIn when the plan no longer
// applies: the structure of A or B changed since NewPlan. Build a new plan
// with NewPlan.
var ErrPlanStale = errors.New("spgemm: plan is stale (input structure changed)")

// Plan caches the structure-dependent work of an SpGEMM — the flop counts,
// the balanced row partition (Figure 6) and the symbolic phase's per-row
// output sizes — so that repeated products with the same sparsity structure
// but updated values skip straight to the numeric phase. Every kernel has
// one: a Heap Plan pays at build time for the symbolic pass the one-phase
// kernel otherwise avoids, and its executions merge each row straight into
// place. This is the inspector-executor separation of MKL's two-stage
// API (mkl_sparse_sp2m) and KokkosKernels' reusable handle: inspect once,
// execute many times.
//
// Soundness is guarded by a structure fingerprint (matrix.StructureChecksum,
// an FNV-1a-style hash of dimensions, row pointers and column indices, blind to
// values): ExecuteIn revalidates both inputs and returns ErrPlanStale on any
// structural change, however the values moved. The O(nnz) check is far
// cheaper than the O(flop) symbolic pass it replaces.
//
// A Plan is nothing more than the driver's two halves held apart (driver.go):
// NewPlan is inspect plus one clone of the inspection into plan-owned memory,
// ExecuteIn is execute on a copy of the row pointers. Plans are part of the
// legacy float64 surface and fix the plus-times ring, so the numeric phase
// always folds in Go's own * and + (ringfast.go); inspect and execute are
// generic, the Plan type is not because its callers — the iterative float64
// solvers and the multiply server — are not.
//
// A Plan holds no execution state: it is immutable after NewPlan but for one
// atomically published replay map (replayMap), and every execution brings
// its own Context. Concurrent ExecuteIn calls on one shared Plan with
// distinct Contexts are therefore safe; they are how the multiply server
// executes cache-hit products from its Context checkout pool.
type Plan struct {
	a, b     *matrix.CSR
	unsorted bool

	fpA, fpB uint64
	// in is the plan's own copy of the inspection (see inspection.clone): the
	// Context's buffers may be overwritten by unrelated Multiply calls
	// between executions.
	in inspection[float64]

	// replay is nil until the second execution (counted by execs) publishes
	// it; mapBytes is its size, 0 if there will be none.
	replay   atomic.Pointer[replayMap]
	execs    atomic.Int32
	mapBytes int64
}

// replayMap is what a kernel replay rediscovers although structure alone
// fixes it: C's column indices (4 B per output entry) and, per intermediate
// product in A-row/B-row order, the rank of its destination inside its output
// row (4 B per flop). It is read off the product the plan's own kernel
// returns, so whatever layout that kernel emits replays reproduce; by the
// second execution, not by NewPlan, because a plan executed once (the server
// under churn builds one per request) would pay a second pass over the
// products for nothing. A plan gets one iff it is not AlgHeap's — the merge
// heap folds equal columns in pop order, not product order — and the map's
// bytes do not exceed shardedAutoBytes, the recipe's "too big to hold whole".
type replayMap struct {
	cols []int32
	dst  [][]uint32 // per stripe of the plan's cut, one rank per product of its rows
}

// NewPlan runs the inspector: flop counts, balanced partition and symbolic
// phase for C = A·B, and returns a Plan whose ExecuteIn performs the
// numeric phase only. Every algorithm Multiply accepts is supported, under
// Multiply's own conditions (AlgHeap needs sorted rows in B; AlgAuto
// resolves through the recipe); a ShardSink is not — a spilled product
// aliases its temp-file mapping and is single-use, the opposite of what a
// reusable plan is for. opt.Context, when set, is the inspector's scratch;
// opt.Stats, when set, receives its per-phase times.
func NewPlan(a, b *matrix.CSR, opt *Options) (*Plan, error) {
	if opt == nil {
		opt = &Options{}
	}
	alg, err := opt.kernelFor(a, b)
	if err != nil {
		return nil, err
	}
	if opt.ShardSink != nil {
		return nil, fmt.Errorf("spgemm: plans do not support a ShardSink (spilled products are single-use)")
	}
	ctx := opt.ctx()
	p := &Plan{
		a: a, b: b,
		unsorted: opt.Unsorted,
		fpA:      a.StructureChecksum(),
		fpB:      b.StructureChecksum(),
	}
	in, pt := inspect(alg, a, b, opt, ctx, true)
	pt.finish()
	p.in = in.clone()
	if n := 4 * (rangeFlop(p.in.flopRow, 0, a.Rows) + p.NNZ()); alg != AlgHeap && n <= shardedAutoBytes.Load() {
		p.mapBytes = n
	}
	mPlanBuilds.Inc()
	return p, nil
}

// NNZ returns the number of nonzeros every execution will produce.
func (p *Plan) NNZ() int64 { return p.in.rowPtr[len(p.in.rowPtr)-1] }

// Bytes returns the memory the plan retains: its inspection plus the replay
// map at its eventual size, built yet or not (fixed at NewPlan).
func (p *Plan) Bytes() int64 { return p.in.bytes() + p.mapBytes }

// ExecuteIn runs the numeric phase against the current values of A and B
// and returns a product of the caller's own (built in fresh arrays, or in
// those of one the caller donated to ctx), bit-identical to what Multiply(a,
// b, ...) with the plan's options would produce. The inputs' structure is
// revalidated by fingerprint; ErrPlanStale means the plan (and its cached
// symbolic result) no longer applies. The numeric phase draws its
// accumulators and scratch from ctx (nil means a fresh transient context) and
// reports into stats (nil disables stats); concurrent calls on the same Plan
// are safe as long as each uses a distinct Context. The second execution also
// builds the replay map (charged to PhaseSymbolic); one that finds the map
// streams through it (WorkerStats.ReplayFlop).
func (p *Plan) ExecuteIn(ctx *Context, stats *ExecStats) (*matrix.CSR, error) {
	if p.a.StructureChecksum() != p.fpA || p.b.StructureChecksum() != p.fpB {
		mPlanStale.Inc()
		return nil, ErrPlanStale
	}
	if ctx == nil {
		ctx = NewContext()
	}
	ctx.ensureWorkers(p.in.workers)
	ctx.pt = startPhases(stats, p.in.alg, p.in.workers)
	pt := &ctx.pt
	rowPtr := ctx.rowPtrBuf(p.a.Rows)
	copy(rowPtr, p.in.rowPtr)
	var c *matrix.CSR
	if m := p.replay.Load(); m != nil {
		c = m.execute(p.a, p.b, ctx, &p.in, rowPtr, p.unsorted, pt)
	} else {
		build := p.mapBytes > 0 && p.execs.Add(1) == 2
		var err error
		c, err = execute(semiring.PlusTimesF64{}, p.a, p.b, ctx, &p.in, rowPtr, p.unsorted, nil, pt)
		if err != nil {
			return nil, err
		}
		if build {
			p.replay.Store(newReplayMap(p.a, p.b, c, ctx, &p.in))
			mReplayMaps.Inc()
			mReplayMapBytes.Add(p.mapBytes)
			pt.tick(PhaseSymbolic)
			pt.finish()
		}
	}
	mPlanExecs.Inc()
	return c, nil
}

// newReplayMap reads the map off c, the product the kernel just returned on
// ctx: per row, scatter column -> rank over Cols, then look up its products.
func newReplayMap(a, b, c *matrix.CSR, ctx *Context, in *inspection[float64]) *replayMap {
	m := &replayMap{cols: append([]int32(nil), c.ColIdx...), dst: make([][]uint32, in.stripes())}
	rank := mempool.Grow(&ctx.rank, b.Cols)
	for s := range m.dst {
		lo, hi := in.offsets[s], in.offsets[s+1]
		dst := make([]uint32, rangeFlop(in.flopRow, lo, hi))
		m.dst[s] = dst
		for i := lo; i < hi; i++ {
			for r, col := range c.ColIdx[c.RowPtr[i]:c.RowPtr[i+1]] {
				rank[col] = int32(r)
			}
			for _, k := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
				bcols := b.ColIdx[b.RowPtr[k]:b.RowPtr[k+1]]
				for y, col := range bcols {
					dst[y] = uint32(rank[col])
				}
				dst = dst[len(bcols):]
			}
		}
	}
	return m
}

// execute is the streamed replay over the plan's own cut: each stripe copies
// and folds its own rows, claimed like every other region's (eachStripe).
func (m *replayMap) execute(a, b *matrix.CSR, ctx *Context, in *inspection[float64], rowPtr []int64, unsorted bool, pt *phaseTimer) *matrix.CSR {
	c := ctx.outputShell(a.Rows, b.Cols, rowPtr, !unsorted)
	pt.tick(PhaseAlloc)
	ctx.eachStripe(in.workers, in.stripes(), func(_, s int, ws *WorkerStats) {
		lo, hi := in.offsets[s], in.offsets[s+1]
		copy(c.ColIdx[rowPtr[lo]:rowPtr[hi]], m.cols[rowPtr[lo]:rowPtr[hi]])
		planReplayRowsF64(a, b, rowPtr, c.Val, m.dst[s], lo, hi)
		if ws != nil {
			ws.Rows += int64(hi - lo)
			ws.Flop += int64(len(m.dst[s]))
			ws.ReplayFlop += int64(len(m.dst[s]))
		}
	})
	pt.tick(PhaseNumeric)
	pt.finish()
	return c
}

// bytes is the memory clone copied (per-worker and per-stripe offsets aside),
// plus rowPtr.
func (in *inspection[V]) bytes() int64 { return int64(8 * (len(in.flopRow) + len(in.rowPtr))) }
