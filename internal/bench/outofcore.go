package bench

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/mempool"
	"repro/internal/sched"
	"repro/internal/spgemm"
)

// The outofcore experiment exercises the striped Hash product's bounded-memory
// claim end to end: a G500 A² whose output entry storage exceeds the chosen
// resident budget, executed through a SpillSink so finished stripes land in
// the temp-file-backed CSR instead of RAM. The run self-asserts — output
// larger than the budget, sink peak residency under the budget, per-worker
// scratch (mempool live bytes) under the budget, and the spilled product
// bit-identical to the in-RAM hash product — so `-exp outofcore` doubles as
// the CI spill smoke: any violated bound is an error exit, not a footnote.

// outOfCoreScale maps the preset to the R-MAT scale of the input.
func outOfCoreScale(p Preset) int {
	switch p {
	case Tiny:
		return 8
	case Full:
		return 18
	}
	return 14
}

// outOfCoreResult carries the measurements plus the bound bookkeeping the
// runner prints and asserts on.
type outOfCoreResult struct {
	Scale    int
	Flop     int64
	OutBytes int64 // entry storage of the product (12 bytes each)
	Budget   int64 // SpillSink resident budget
	Peak     int64 // high-water resident stripe bytes across all runs
	Spilled  int64 // spill file size
	Stripes  int
	Live     int64 // mempool live bytes grown by this experiment's runs
	Rows     []reuseVariant
}

// measureOutOfCore times the spill-backed striped Hash multiply against the
// fully-resident hash baseline on the same input, verifying bit-identity and
// the residency bounds along the way. The budget is a quarter of the output
// entry storage (floor 64 KiB), so the product can never fit: completing at
// all proves the out-of-core path works.
func measureOutOfCore(cfg Config) (*outOfCoreResult, error) {
	res := &outOfCoreResult{Scale: outOfCoreScale(cfg.Preset)}
	rng := rand.New(rand.NewSource(cfg.seed()))
	a := gen.RMAT(res.Scale, 16, gen.G500Params, rng)
	res.Flop, _ = matrix.Flop(a, a)
	iters := cfg.reps()
	workers := cfg.workers()
	variant := fmt.Sprintf("outofcore-s%d", res.Scale)

	// Fully-resident hash baseline: the reference product and the comparison
	// row showing what bounded residency costs.
	hashCtx := spgemm.NewContext()
	hashCtx.Pool = sched.NewPool(workers)
	hashOpt := &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: workers, Context: hashCtx}
	want, err := spgemm.Multiply(a, a, hashOpt)
	if err != nil {
		hashCtx.Pool.Close()
		return nil, err
	}
	d, allocs, bytes := timedAllocsMin(iters, func() {
		if _, e := spgemm.Multiply(a, a, hashOpt); e != nil {
			err = e
		}
	})
	hashCtx.Pool.Close()
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, reuseVariant{"hash", variant, d.Nanoseconds(), mflops(res.Flop, d), allocs, bytes})

	res.OutBytes = want.NNZ() * 12
	res.Budget = res.OutBytes / 4
	if res.Budget < 64<<10 {
		res.Budget = 64 << 10
	}
	if res.OutBytes <= res.Budget {
		return nil, fmt.Errorf("outofcore: output %d bytes fits the %d-byte budget; nothing is out of core at scale %d",
			res.OutBytes, res.Budget, res.Scale)
	}

	// The live-bytes gauge is process-wide; other experiments in the same
	// process (-exp all, the tests) have already grown scratch, so the budget is
	// asserted on the growth this experiment causes, not the absolute level.
	// In the standalone CI smoke the baseline is zero and they coincide.
	live0 := mempool.LiveBytes()

	ctx := spgemm.NewContext()
	ctx.Pool = sched.NewPool(workers)
	defer ctx.Pool.Close()
	mkOpt := func(sink *spgemm.SpillSink[float64], st *spgemm.ExecStats) *spgemm.Options {
		return &spgemm.Options{
			Algorithm: spgemm.AlgHash, Workers: workers, Context: ctx,
			// Cut stripes to a quarter of the budget so several can be
			// resident at once and the peak stays strictly under it.
			ShardMemBudget: res.Budget / 4,
			ShardSink:      sink, Stats: st,
		}
	}

	// Verification run: bit-identity and the per-stripe spill marking.
	var st spgemm.ExecStats
	sink := spgemm.NewSpillSink[float64]("", res.Budget)
	got, err := spgemm.Multiply(a, a, mkOpt(sink, &st))
	if err != nil {
		sink.Close()
		return nil, err
	}
	if got.NNZ() != want.NNZ() {
		sink.Close()
		return nil, fmt.Errorf("outofcore: spilled nnz %d, hash nnz %d", got.NNZ(), want.NNZ())
	}
	for i := range want.ColIdx {
		if got.ColIdx[i] != want.ColIdx[i] || got.Val[i] != want.Val[i] {
			sink.Close()
			return nil, fmt.Errorf("outofcore: spilled product differs from hash at entry %d", i)
		}
	}
	res.Stripes = len(st.Stripes)
	for _, s := range st.Stripes {
		if !s.Spilled {
			sink.Close()
			return nil, fmt.Errorf("outofcore: stripe [%d,%d) not marked spilled", s.Lo, s.Hi)
		}
	}
	res.Peak = sink.PeakResident()
	res.Spilled = sink.SpilledBytes()
	if err := sink.Close(); err != nil {
		return nil, err
	}

	// Timed loop: sink creation, spilling and teardown are all part of what
	// out-of-core execution costs, so they stay inside the timer.
	d, allocs, bytes = timedAllocsMin(iters, func() {
		s := spgemm.NewSpillSink[float64]("", res.Budget)
		if _, e := spgemm.Multiply(a, a, mkOpt(s, nil)); e != nil {
			err = e
		}
		if pk := s.PeakResident(); pk > res.Peak {
			res.Peak = pk
		}
		if e := s.Close(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, reuseVariant{"sharded-spill", variant, d.Nanoseconds(), mflops(res.Flop, d), allocs, bytes})

	if res.Peak > res.Budget {
		return nil, fmt.Errorf("outofcore: peak resident %d bytes exceeds the %d-byte budget", res.Peak, res.Budget)
	}
	res.Live = mempool.LiveBytes() - live0
	if res.Live > res.Budget {
		return nil, fmt.Errorf("outofcore: mempool live bytes grew %d, exceeding the %d-byte budget", res.Live, res.Budget)
	}
	return res, nil
}

// runOutOfCore renders the out-of-core experiment. Violated bounds surface
// as errors (non-zero exit), which is what the CI spill smoke relies on.
func runOutOfCore(cfg Config, w io.Writer) error {
	res, err := measureOutOfCore(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "G500 R-MAT scale %d, edge factor 16, A², flop=%d, iters=%d\n",
		res.Scale, res.Flop, cfg.reps())
	fmt.Fprintf(w, "output entries: %d bytes; resident budget: %d bytes; stripes: %d\n",
		res.OutBytes, res.Budget, res.Stripes)
	fmt.Fprintf(w, "peak resident: %d bytes; spill file: %d bytes; mempool growth: %d bytes\n",
		res.Peak, res.Spilled, res.Live)
	t := newTable("alg", "variant", "ms/iter", "MFLOPS", "allocs/iter")
	for _, r := range res.Rows {
		t.add(r.Alg, r.Variant, f2(float64(r.NsPerOp)/1e6), f1(r.MFLOPS), fmt.Sprintf("%d", r.Allocs))
	}
	t.write(w, cfg.CSV)
	fmt.Fprintln(w, "# expectation: the spilled product completes bit-identical to hash with peak residency under budget")
	return nil
}
