package spgemm

import (
	"errors"
	"fmt"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// ErrPlanStale is returned by Plan.Execute when the plan no longer applies:
// the structure of A or B changed since NewPlan, or Invalidate was called.
// Build a new plan with NewPlan.
var ErrPlanStale = errors.New("spgemm: plan is stale (input structure changed or plan invalidated)")

// Plan caches the structure-dependent work of a hash SpGEMM — the flop
// counts, the balanced row partition (Figure 6) and the symbolic phase's
// per-row output sizes — so that repeated products with the same sparsity
// structure but updated values skip straight to the numeric phase. This is
// the inspector-executor separation of MKL's two-stage API
// (mkl_sparse_sp2m) and KokkosKernels' reusable handle: inspect once,
// execute many times.
//
// Soundness is guarded by a structure fingerprint (matrix.StructureChecksum,
// an FNV-1a hash of dimensions, row pointers and column indices, blind to
// values): Execute revalidates both inputs and returns ErrPlanStale on any
// structural change, however the values moved. The O(nnz) check is far
// cheaper than the O(flop) symbolic pass it replaces.
//
// Plans are part of the legacy float64 surface and fix the plus-times ring,
// so the numeric phase below is always the monomorphized fast path. (A
// generic plan would have to carry its ring as a value or re-instantiate per
// ring type; the reuse-heavy iterative callers plans serve are the float64
// solvers.)
//
// A Plan's cached inspector results (offsets, bounds, flop counts, output
// row pointers) are read-only after NewPlan; the mutable execution state
// lives in a Context. Execute is therefore NOT safe for concurrent use —
// it runs on the plan's own Context — but ExecuteIn with distinct Contexts
// is: concurrent ExecuteIn calls on one shared Plan are exactly how the
// multiply server executes cache-hit products from its Context checkout
// pool. Invalidate must not race in-flight Executes.
type Plan struct {
	a, b     *matrix.CSR
	alg      Algorithm
	workers  int
	unsorted bool
	stats    *ExecStats
	ctx      *Context

	fpA, fpB uint64
	// Plan-owned copies of the inspector results: the Context's own buffers
	// may be overwritten by unrelated Multiply calls between Executes.
	offsets []int
	bounds  []int64 // per-worker accumulator size bound (capped at Cols)
	flopRow []int64
	rowPtr  []int64
	valid   bool

	// Tiled-plan state (alg == AlgTiled): the cached tile geometry and
	// column-split structure of B plus the heavy (row, tile) unit
	// bookkeeping. Values are NOT cached — perm maps each split entry back
	// to its originating B entry, and every execution re-gathers B's current
	// values through it into the Context's buffer, which keeps executions
	// bit-identical to Multiply after value updates and keeps concurrent
	// ExecuteIn calls (distinct Contexts) safe on one shared Plan.
	tileCols   int
	nTiles     int
	heavyFlop  int64
	nHeavy     int
	lightFlop  []int64 // flopRow with heavy rows zeroed (aliases flopRow when none)
	tileRowPtr []int64
	tileIdx    []int32
	perm       []int64
	unitRow    []int32
	unitTile   []int32
	unitFlop   []int64
	unitNnz    []int64
	unitOff    []int64
	uoffsets   []int

	// Sharded-plan state (alg == AlgSharded): the cached stripe geometry —
	// flop-balanced row offsets, per-stripe accumulator bounds, column-split
	// flags and the block width (see shardGeometry).
	stripeOffsets  []int
	stripeBounds   []int64
	stripeWide     []bool
	shardBlockCols int
}

// NewPlan runs the inspector: flop counts, balanced partition and symbolic
// phase for C = A·B, and returns a Plan whose Execute performs the numeric
// phase only. Supported algorithms are AlgHash, AlgHashVec, AlgTiled and
// AlgSharded (AlgAuto resolves through the recipe and then must land on one
// of those); Mask, Semiring and ShardSink are not supported. opt.Context, when set, supplies the
// reusable accumulators Execute will use; opt.Stats, when set, receives
// per-phase times for the inspector call and for every Execute.
func NewPlan(a, b *matrix.CSR, opt *Options) (*Plan, error) {
	if opt == nil {
		opt = &Options{}
	}
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("spgemm: dimension mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if opt.Mask != nil || opt.Semiring != nil {
		return nil, fmt.Errorf("spgemm: plans support plus-times unmasked products only")
	}
	alg := opt.Algorithm
	if alg == AlgAuto {
		alg = Recommend(a, b, !opt.Unsorted, opt.UseCase)
	}
	if alg != AlgHash && alg != AlgHashVec && alg != AlgTiled && alg != AlgSharded {
		return nil, fmt.Errorf("spgemm: plans support hash, hashvec, tiled and sharded, not %v", alg)
	}
	if opt.ShardSink != nil {
		return nil, fmt.Errorf("spgemm: plans do not support a ShardSink (spilled products are single-use)")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = sched.DefaultWorkers()
	}
	if workers > a.Rows && a.Rows > 0 {
		workers = a.Rows
	}
	if workers < 1 {
		workers = 1
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = NewContext()
	}
	ctx.ensureWorkers(workers)

	p := &Plan{
		a: a, b: b,
		alg:      alg,
		workers:  workers,
		unsorted: opt.Unsorted,
		stats:    opt.Stats,
		ctx:      ctx,
		fpA:      a.StructureChecksum(),
		fpB:      b.StructureChecksum(),
	}
	if opt.Stats != nil {
		opt.Stats.Algorithm = alg
	}
	if alg == AlgTiled {
		p.buildTiled(opt, ctx)
		p.valid = true
		mPlanBuilds.Inc()
		return p, nil
	}
	if alg == AlgSharded {
		p.buildSharded(opt, ctx)
		p.valid = true
		mPlanBuilds.Inc()
		return p, nil
	}

	pt := startPhases(opt.Stats, workers)
	flopRow := ctx.perRowFlop(a, b)
	p.flopRow = append(p.flopRow[:0], flopRow...)
	p.offsets = append(p.offsets[:0], ctx.partition(flopRow, workers, workers)...)
	pt.tick(PhasePartition)

	p.bounds = make([]int64, workers)
	rowNnz := ctx.rowNnzBuf(a.Rows)
	ctx.runWorkers("inspect-symbolic", workers, func(w int) {
		p.bounds[w] = ctx.hashSymbolic(w, a, b, p.flopRow, p.offsets[w], p.offsets[w+1], rowNnz, pt.worker(w))
	})
	pt.tick(PhaseSymbolic)
	p.rowPtr = ctx.prefixSum(rowNnz, make([]int64, a.Rows+1), workers)
	pt.finish()
	p.valid = true
	mPlanBuilds.Inc()
	return p, nil
}

// NNZ returns the number of nonzeros every Execute will produce.
func (p *Plan) NNZ() int64 { return p.rowPtr[len(p.rowPtr)-1] }

// Invalidate marks the plan stale; every later Execute returns ErrPlanStale.
// Call it after changing the structure of A or B in a way the caller knows
// about — the fingerprint check would catch it anyway, but an explicit
// invalidation documents intent and skips the checksum of a doomed Execute.
func (p *Plan) Invalidate() { p.valid = false }

// Execute runs the numeric phase against the current values of A and B and
// returns a freshly allocated product, bit-identical to what
// Multiply(a, b, ...) with the plan's options would produce. The inputs'
// structure is revalidated by fingerprint; ErrPlanStale means the plan (and
// its cached symbolic result) no longer applies.
func (p *Plan) Execute() (*matrix.CSR, error) {
	return p.ExecuteIn(p.ctx, p.stats)
}

// ExecuteIn is Execute with caller-supplied mutable state: the numeric
// phase draws its accumulators and scratch from ctx (nil means a fresh
// transient context) and reports into stats (nil disables stats). The plan
// itself is only read, so concurrent ExecuteIn calls on the same Plan are
// safe as long as each uses a distinct Context — the contract the multiply
// server's plan cache relies on.
func (p *Plan) ExecuteIn(ctx *Context, stats *ExecStats) (*matrix.CSR, error) {
	if !p.valid {
		mPlanStale.Inc()
		return nil, ErrPlanStale
	}
	if p.a.StructureChecksum() != p.fpA || p.b.StructureChecksum() != p.fpB {
		mPlanStale.Inc()
		return nil, ErrPlanStale
	}
	if p.alg == AlgTiled {
		return p.executeTiled(ctx, stats)
	}
	if p.alg == AlgSharded {
		return p.executeSharded(ctx, stats)
	}
	a, b := p.a, p.b
	if ctx == nil {
		ctx = NewContext()
	}
	ctx.ensureWorkers(p.workers)
	pt := startPhases(stats, p.workers)
	if stats != nil {
		stats.Algorithm = p.alg
	}

	outPtr := make([]int64, len(p.rowPtr))
	copy(outPtr, p.rowPtr)
	c := outputShell[float64](a.Rows, b.Cols, outPtr, !p.unsorted)
	pt.tick(PhaseAlloc)

	ctx.runWorkers("plan-numeric", p.workers, func(w int) {
		lo, hi := p.offsets[w], p.offsets[w+1]
		if lo >= hi {
			return
		}
		if p.alg == AlgHash {
			h := newHashNumeric(semiring.PlusTimesF64{}, ctx.hashTable(w, p.bounds[w]), a, b, c.ColIdx, c.Val, !p.unsorted)
			h.rows(p.flopRow, c.RowPtr, lo, hi, 0)
			if ws := pt.worker(w); ws != nil {
				ws.Rows = int64(hi - lo)
				ws.Flop = rangeFlop(p.flopRow, lo, hi)
				h.report(ws)
			}
			return
		}
		table := ctx.hashVecTable(w, p.bounds[w])
		for i := lo; i < hi; i++ {
			table.Reset()
			alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
			for q := alo; q < ahi; q++ {
				k := a.ColIdx[q]
				av := a.Val[q]
				for r := b.RowPtr[k]; r < b.RowPtr[k+1]; r++ {
					prod := av * b.Val[r]
					slot, fresh := table.Upsert(b.ColIdx[r])
					if fresh {
						*slot = prod
					} else {
						*slot += prod
					}
				}
			}
			start := c.RowPtr[i]
			n := c.RowPtr[i+1] - start
			if p.unsorted {
				table.ExtractUnsorted(c.ColIdx[start:start+n], c.Val[start:start+n])
			} else {
				table.ExtractSorted(c.ColIdx[start:start+n], c.Val[start:start+n])
			}
		}
		if ws := pt.worker(w); ws != nil {
			ws.Rows = int64(hi - lo)
			ws.Flop = rangeFlop(p.flopRow, lo, hi)
			ws.HashLookups = table.Lookups()
			ws.HashProbes = table.Probes()
		}
	})
	pt.tick(PhaseNumeric)
	pt.finish()
	mPlanExecs.Inc()
	if stats != nil {
		ctx.accumulate(stats)
	}
	return c, nil
}
