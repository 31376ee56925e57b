package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/memmodel"
	"repro/internal/mempool"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/spgemm"
)

// forcedKernels are the kernels the recipe chooses between; each is timed
// by issuing the workload's own op with the kernel forced.
var forcedKernels = []struct {
	metric string
	alg    spgemm.Algorithm
}{
	{"spgemm.hash_s", spgemm.AlgHash},
	{"spgemm.hashvec_s", spgemm.AlgHashVec},
	{"spgemm.heap_s", spgemm.AlgHeap},
	{"spgemm.tiled_s", spgemm.AlgTiled},
	{"spgemm.sharded_s", spgemm.AlgSharded},
}

// probeVariants times the op as users get it (AlgAuto) against the same op
// with each kernel forced and, where the op runs several workers, with one. The variants take turns inside every round, because two windows
// of the same code minutes apart differ by more than the kernels do.
func probeVariants(ms metricSet, r *runner, budget float64) {
	type arm struct {
		metric string
		v      variant
		durs   []float64
	}
	arms := []*arm{{metric: "spgemm.auto_s"}}
	for _, k := range forcedKernels {
		// A kernel that rejects this input (heap on unsorted rows) is left
		// out; its metric stays 0.
		if _, err := r.inst.op(0, variant{alg: k.alg}, nil); err == nil {
			arms = append(arms, &arm{metric: k.metric, v: variant{alg: k.alg}})
		}
	}
	parallel := r.inst.rep().opt.Workers > 1
	if parallel {
		arms = append(arms, &arm{metric: "spgemm.w1_s", v: variant{workers: 1}})
	}
	n := max(r.def.roundOps/10, 2)
	start := time.Now()
	for rounds := 0; rounds < 3 || time.Since(start).Seconds() < budget; rounds++ {
		for _, a := range arms {
			durs, _ := r.round(n, a.v, false)
			a.durs = append(a.durs, durs...)
		}
	}
	auto := median(arms[0].durs)
	best := 0.0
	for _, a := range arms {
		p50 := median(a.durs)
		ms.set(a.metric, p50)
		if a.v.alg != spgemm.AlgAuto && (best == 0 || p50 < best) {
			best = p50
		}
	}
	if best > 0 {
		ms.set("spgemm.auto_over_best", auto/best)
	}
	if parallel {
		ms.set("spgemm.speedup", median(arms[len(arms)-1].durs)/auto)
	}
}

const (
	probeReps    = 9
	heavyRows    = 256      // rows replayed through the accumulator
	stanzaArray  = 64 << 20 // bytes swept by the bandwidth measurement
	stanzaWindow = 150 * time.Millisecond
)

// probeLayers calls into each layer directly, on the product the workload
// multiplies, and reads the counters the layers already keep.
func probeLayers(ms metricSet, inst instance, w int, tmpDir string) error {
	rep := inst.rep()
	a, b := rep.a, rep.b

	// spgemm: one whole kernel call as the op issues it, several times.
	phases := make([][]float64, spgemm.NumPhases)
	var kernel, unaccounted []float64
	var st spgemm.ExecStats
	for i := 0; i < probeReps; i++ {
		st = spgemm.ExecStats{}
		t0 := time.Now()
		if err := inst.kernel(&st); err != nil {
			return fmt.Errorf("kernel probe: %w", err)
		}
		wall := time.Since(t0)
		for p := range phases {
			phases[p] = append(phases[p], st.Phases[p].Seconds())
		}
		kernel = append(kernel, st.Total.Seconds())
		unaccounted = append(unaccounted, (wall - st.Total).Seconds())
	}
	for p := spgemm.Phase(0); p < spgemm.NumPhases; p++ {
		ms.set("spgemm."+p.String()+"_s", median(phases[p]))
	}
	ms.set("spgemm.kernel_s", median(kernel))
	ms.set("spgemm.unaccounted_s", median(unaccounted))

	tw := st.TotalWorker()
	ms.set("accum.hash_lookups", float64(tw.HashLookups))
	ms.set("accum.hash_probes", float64(tw.HashProbes))
	ms.set("accum.collision_factor", st.CollisionFactor())
	ms.set("accum.heap_pushes", float64(tw.HeapPushes))
	var maxFlop, sumFlop int64
	for _, ws := range st.Workers {
		maxFlop = max(maxFlop, ws.Flop)
		sumFlop += ws.Flop
	}
	if sumFlop > 0 {
		ms.set("spgemm.worker_flop_imbalance", float64(maxFlop)*float64(len(st.Workers))/float64(sumFlop))
	}

	// Exact counts of the product, and its computed (not measured) traffic.
	flop, flopRow := matrix.Flop(a, b)
	nnzC := matrix.SymbolicNNZ(a, b)
	access := spgemm.CollectAccessStats(a, b, nnzC)
	ms.set("spgemm.flop", float64(flop))
	ms.set("spgemm.nnz_c", float64(nnzC))
	ms.set("spgemm.compression_ratio", float64(flop)/float64(max(nnzC, 1)))
	ms.set("spgemm.mflops", 2*float64(flop)/median(kernel)/1e6)
	ms.set("spgemm.bytes_computed", float64(access.TotalBytes()))
	ms.set("spgemm.flop_per_byte", float64(flop)/float64(access.TotalBytes()))

	// The recipe and the inspector, unless a cached Plan keeps both off
	// this workload's path.
	opt := rep.opt
	if !rep.planCached {
		ms.set("spgemm.recommend_s", median(timeN(probeReps, func() {
			spgemm.Recommend(a, b, !opt.Unsorted, opt.UseCase)
		})))
	}
	opt.Context = spgemm.NewContext()
	if plan, err := spgemm.NewPlan(a, b, &opt); err == nil {
		if !rep.planCached {
			ms.set("spgemm.plan_build_s", median(timeN(probeReps, func() { _, _ = spgemm.NewPlan(a, b, &opt) })))
		}
		ms.set("spgemm.plan_exec_s", median(timeN(probeReps, func() { _, _ = plan.ExecuteIn(opt.Context, nil) })))
	}

	probeAccum(ms, a, b, flopRow)

	// sched: the partition of this product's rows, and an empty region.
	pool := sched.NewPool(w)
	defer pool.Close()
	var offsets []int
	ms.set("sched.partition_s", median(timeN(probeReps, func() { offsets = sched.BalancedPartition(flopRow, w, w) })))
	ps := make([]int64, len(flopRow)+1)
	ms.set("sched.prefixsum_s", median(timeN(probeReps, func() { sched.PrefixSum(flopRow, ps, w) })))
	ms.set("sched.imbalance", sched.PartitionImbalance(flopRow, offsets))
	ms.set("sched.forkjoin_us", 1e6*median(timeN(1000, func() { pool.RunWorkers(w, func(int) {}) })))

	// matrix: what the op and the server do to the operands besides
	// multiplying them.
	ms.set("matrix.flop_s", median(timeN(probeReps, func() { matrix.Flop(a, b) })))
	ms.set("matrix.checksum_s", median(timeN(probeReps, func() { a.StructureChecksum(); b.StructureChecksum() })))
	ms.set("matrix.transpose_s", median(timeN(probeReps, func() { a.Transpose() })))
	var wire bytes.Buffer
	ms.set("matrix.wire_encode_s", median(timeN(probeReps, func() {
		wire.Reset()
		_ = matrix.WriteCSRBinary(&wire, b) // a bytes.Buffer cannot fail
	})))
	ms.set("matrix.wire_decode_s", median(timeN(probeReps, func() {
		_, _ = matrix.ReadCSRBinary(bytes.NewReader(wire.Bytes()))
	})))
	ms.set("matrix.wire_mb", float64(matrix.WireSize(b))/1e6)

	// server: the pieces a request passes through, called directly.
	ms.set("server.hash_s", median(timeN(probeReps, func() { _, _ = server.HashMatrix(b) })))
	store := server.NewStore(0, nil)
	var hash string
	ms.set("server.store_put_s", median(timeN(probeReps, func() { hash, _, _ = store.Put(b) })))
	ms.set("server.store_get_ns", 1e9*median(timeN(1000, func() { store.Get(hash) })))
	plans := server.NewPlanCache(8)
	key := server.PlanKey{A: hash, B: hash, Workers: 1}
	if plan, err := spgemm.NewPlan(a, b, &opt); err == nil {
		plans.Add(key, plan)
	}
	ms.set("server.plancache_get_ns", 1e9*median(timeN(1000, func() { plans.Get(key) })))
	ctxs := server.NewContextPool(w, 0)
	ms.set("server.ctx_acquire_ns", 1e9*median(timeN(1000, func() {
		if c, err := ctxs.Acquire(context.Background()); err == nil {
			ctxs.Release(c)
		}
	})))

	// memmodel: stanza bandwidth at this product's mean B-row length. The
	// achieved fraction (computed bytes / kernel time / bandwidth) is only
	// meaningful when the swept array dwarfs the last-level cache.
	stanza := max(int(access.MeanStanzaBytes()), 8)
	bw := memmodel.MeasureStanzaBandwidth(stanzaArray, []int{stanza}, stanzaWindow)[0].GBps
	llc := readHost().LLCBytes
	ms.set("memmodel.stanza_bw_gbs", bw)
	ms.set("memmodel.array_mb", float64(stanzaArray)/1e6)
	ms.set("memmodel.llc_mb", float64(llc)/1e6)
	if llc > 0 && stanzaArray >= 4*llc {
		frac := float64(access.TotalBytes()) / median(kernel) / (bw * 1e9)
		fmt.Fprintf(os.Stderr, "spgemm.bw_frac %.4f ratio (computed bytes / kernel_s / stanza bandwidth)\n", frac)
	} else {
		fmt.Fprintf(os.Stderr, "spgemm.bw_frac omitted: array %d B is under 4x the last-level cache %d B\n", stanzaArray, llc)
	}

	ms.set("mempool.live_mb", float64(mempool.LiveBytes())/1e6)

	if rep.spill {
		return probeSpill(ms, a, opt.Workers, nnzC, tmpDir)
	}
	return nil
}

// probeAccum replays the product's heaviest rows through the hash
// accumulator alone: upserts, then sorted and unsorted extraction.
func probeAccum(ms metricSet, a, b *matrix.CSR, flopRow []int64) {
	rows := make([]int, len(flopRow))
	for i := range rows {
		rows[i] = i
	}
	sort.Slice(rows, func(x, y int) bool { return flopRow[rows[x]] > flopRow[rows[y]] })
	rows = rows[:min(heavyRows, len(rows))]
	if len(rows) == 0 || flopRow[rows[0]] == 0 {
		return
	}
	bound := min(flopRow[rows[0]], int64(b.Cols))
	table := accum.NewHashTableG[float64](bound)
	cols := make([]int32, bound)
	vals := make([]float64, bound)
	var upserts, entries int64
	fill := func(i int) {
		table.Reset()
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k, av := a.ColIdx[p], a.Val[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				slot, fresh := table.Upsert(b.ColIdx[q])
				if fresh {
					*slot = av * b.Val[q]
				} else {
					*slot += av * b.Val[q]
				}
			}
		}
	}
	for _, i := range rows {
		upserts += flopRow[i]
	}
	upsert := median(timeN(probeReps, func() {
		for _, i := range rows {
			fill(i)
		}
	}))
	// Extraction is timed over rows already filled, one row at a time.
	var sorted, unsorted float64
	for _, i := range rows {
		fill(i)
		entries += int64(table.Len())
		t0 := time.Now()
		table.ExtractUnsorted(cols, vals)
		t1 := time.Now()
		table.ExtractSorted(cols, vals)
		unsorted += t1.Sub(t0).Seconds()
		sorted += time.Since(t1).Seconds()
	}
	ms.set("accum.upsert_ns", 1e9*upsert/float64(upserts))
	ms.set("accum.extract_unsorted_ns", 1e9*unsorted/float64(entries))
	ms.set("accum.extract_sorted_ns", 1e9*sorted/float64(entries))
}

// probeSpill runs the square product a*a out of core: AlgSharded
// into a SpillSink whose resident budget is a quarter of the output, through
// Assemble and Close.
func probeSpill(ms metricSet, a *matrix.CSR, w int, nnzC int64, tmpDir string) error {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	budget := nnzC * 12 / 4
	var took []float64
	var sink *spgemm.SpillSink[float64]
	var st spgemm.ExecStats
	for i := 0; i < 3; i++ {
		sink = spgemm.NewSpillSink[float64](tmpDir, budget)
		t0 := time.Now()
		c, err := spgemm.Multiply(a, a, &spgemm.Options{Algorithm: spgemm.AlgSharded, Workers: w,
			ShardSink: sink, ShardMemBudget: budget / 4, Stats: &st})
		if err == nil && c.NNZ() != nnzC {
			err = fmt.Errorf("spilled product has %d entries, want %d", c.NNZ(), nnzC)
		}
		ms.set("spgemm.spilled_mb", float64(sink.SpilledBytes())/1e6)
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("spill probe: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	ms.set("spgemm.spill_s", median(took))
	ms.set("spgemm.spill_peak_resident_mb", float64(sink.PeakResident())/1e6)
	ms.set("spgemm.stripes", float64(len(st.Stripes)))
	return nil
}
