package main

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/spgemm"
)

const (
	warmupOps  = 5
	setupReps  = 5 // setup_s is the median of this many set-ups
	libraryOps = 100
	servedOps  = 1000
	// A run that cannot reach its op count stops at this multiple of
	// -seconds and says so, rather than hanging a slow host.
	overrunFactor = 3
)

// runResult is one run, as saved with -out. The result line printed last on
// stdout carries only correct, attempted, failed and metrics.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Host      hostInfo               `json:"host"`
	HostSpeed float64                `json:"host_speed"` // median over the run, 1 = nominal (calib.go)
	Time      string                 `json:"time"`
}

// runner issues a workload's operations in rounds and keeps the failure
// count. rec is nil unless the run is traced.
type runner struct {
	def  *workloadDef
	inst instance
	w    int
	rec  *recorder
	host *hostClock

	next              int
	attempted, failed int
	firstErr          error
}

func (r *runner) clients() int {
	if r.def.served {
		return r.w
	}
	return 1
}

// check verifies one finished op, outside every timer.
func (r *runner) check(i int, res any, err error) {
	r.attempted++
	if err == nil && r.inst.verify(i, res) {
		return
	}
	r.failed++
	if r.firstErr == nil {
		if err == nil {
			err = fmt.Errorf("result differs from the oracle")
		}
		r.firstErr = fmt.Errorf("op %d: %w", i, err)
	}
}

// round runs n ops of variant v: one after another on a library workload,
// split over W closed-loop clients (each waits for its reply before sending
// again) on a served one. It returns every op's seconds and the seconds the
// round was busy with ops: their sum for one caller, the wall clock for
// several, both brought to nominal host speed (see calib.go). A library op
// is verified as soon as it returns, so that its output can be collected;
// served responses are verified after the round, so that checking one never
// competes with another client's request.
func (r *runner) round(n int, v variant, traced bool) (durs []float64, busy float64) {
	c := r.clients()
	durs = make([]float64, n)
	results := make([]any, n)
	errs := make([]error, n)
	base := r.next
	r.next += n
	one := func(k, lane int) {
		vv := v
		var tr *opTrace
		if traced {
			vv.stats = &spgemm.ExecStats{}
		}
		t0 := time.Now()
		if traced {
			tr = r.rec.begin(base+k, lane, r.def.name, t0)
		}
		results[k], errs[k] = r.inst.op(base+k, vv, tr)
		t1 := time.Now()
		tr.end(t1)
		durs[k] = t1.Sub(t0).Seconds()
	}
	factor := r.host.around(func() {
		if c == 1 {
			for k := 0; k < n; k++ {
				one(k, 0)
				busy += durs[k]
				r.check(base+k, results[k], errs[k])
				results[k] = nil
			}
			return
		}
		start := time.Now()
		var wg sync.WaitGroup
		for lane := 0; lane < c; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for k := lane; k < n; k += c {
					one(k, lane)
				}
			}(lane)
		}
		wg.Wait()
		busy = time.Since(start).Seconds()
		for k := range results {
			r.check(base+k, results[k], errs[k])
		}
	})
	for k := range durs {
		durs[k] *= factor
	}
	return durs, busy * factor
}

// window accumulates the rounds of one kind of op.
type window struct {
	durs   []float64 // every op
	rounds []float64 // each round's median op time
	busy   float64
}

func (w *window) add(durs []float64, busy float64) {
	w.durs = append(w.durs, durs...)
	w.rounds = append(w.rounds, median(durs))
	w.busy += busy
}

// memSnap is the part of runtime.MemStats the metrics use.
type memSnap struct {
	alloc, pauseNs uint64
	gcs            uint32
	heapLive       uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs, gcs: m.NumGC, heapLive: m.HeapAlloc}
}

func workers() int { return min(runtime.NumCPU(), 4) }

// setUp builds the workload from the seed and returns how long that took at
// nominal host speed.
func setUp(def *workloadDef, seed int64, w int, host *hostClock) (inst instance, took float64, err error) {
	factor := host.around(func() {
		t0 := time.Now()
		inst, err = def.setup(rand.New(rand.NewSource(seed)), w)
		took = time.Since(t0).Seconds()
	})
	return inst, took * factor, err
}

func minOps(def *workloadDef) int {
	if def.served {
		return servedOps
	}
	return libraryOps
}

// summarize turns a window of AlgAuto ops into the metrics a user would
// see. Tail percentiles are reported only with ten samples beyond them.
// Names that belong to the other table are dropped by ms.
func summarize(ms metricSet, r *runner, win *window, m0, m1 memSnap) {
	s := sortedCopy(win.durs)
	n := len(s)
	var sum float64
	for _, d := range s {
		sum += d
	}
	ms.set("op_s_mean", sum/float64(n))
	ms.set("op_s_p50", median(s))
	if p90, ok := percentile(s, 0.90); ok {
		ms.set("op_s_p90", p90)
	}
	if p99, ok := percentile(s, 0.99); ok {
		ms.set("op_s_p99", p99)
	}
	if win.busy > 0 {
		ms.set("ops_per_s", float64(n-r.failed)/win.busy)
	}
	ms.set("alloc_mb_per_op", float64(m1.alloc-m0.alloc)/float64(n)/1e6)
	ms.set("peak_rss_mb", peakRSSMB())
	ms.set("failed_frac", float64(r.failed)/float64(max(r.attempted, 1)))
}

// runEndToEnd is the -trace 0 run: tracing off, Options.Stats nil.
func runEndToEnd(def *workloadDef, seed int64, seconds float64) (*runner, metricSet, error) {
	w := workers()
	runtime.GOMAXPROCS(w)
	ms := newMetricSet(false)

	// Set-up is repeated because one reading of a second-long build is too
	// noisy to bound; the last instance is the one measured.
	host := &hostClock{}
	var inst instance
	var setups []float64
	for k := 0; k < setupReps; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, ms, err
			}
		}
		var took float64
		var err error
		if inst, took, err = setUp(def, seed, w, host); err != nil {
			return nil, ms, err
		}
		setups = append(setups, took)
	}
	ms.set("setup_s", median(setups))

	r := &runner{def: def, inst: inst, w: w, host: host}
	r.round(warmupOps, variant{}, false)
	runtime.GC()

	var win window
	m0 := readMem()
	start := time.Now()
	for {
		win.add(r.round(def.roundOps, variant{}, false))
		el := time.Since(start).Seconds()
		if (el >= seconds && len(win.durs) >= minOps(def)) || el >= overrunFactor*seconds {
			break
		}
	}
	summarize(ms, r, &win, m0, readMem())
	return r, ms, inst.close()
}

// runTraced is the -trace 1 run. It spends half of -seconds (longer if the
// op count asks) alternating rounds of untraced and traced ops (traced:
// Options.Stats set and every layer call recorded as a span), a quarter on
// rounds that interleave the forced-kernel and single-worker variants of
// the op, and then calls into each layer directly.
func runTraced(def *workloadDef, seed int64, seconds float64, traceDir string) (*runner, metricSet, error) {
	w := workers()
	runtime.GOMAXPROCS(w)
	ms := newMetricSet(true)

	host := &hostClock{}
	inst, _, err := setUp(def, seed, w, host)
	if err != nil {
		return nil, ms, err
	}
	r := &runner{def: def, inst: inst, w: w, rec: newRecorder(), host: host}
	r.round(warmupOps, variant{}, false)
	runtime.GC()

	n := max(def.roundOps/2, 2)
	var plain, traced window
	m0 := readMem()
	start := time.Now()
	for {
		plain.add(r.round(n, variant{}, false))
		traced.add(r.round(n, variant{}, true))
		el := time.Since(start).Seconds()
		if (el >= 0.5*seconds && len(plain.durs)+len(traced.durs) >= minOps(def)) || el >= overrunFactor*seconds {
			break
		}
	}
	m1 := readMem()

	// The tail percentiles demoted from the end-to-end table need every
	// sample this run has, so they are read over both kinds of op;
	// bench.trace_overhead_frac says how far the traced half is off.
	all := window{durs: append(append([]float64(nil), plain.durs...), traced.durs...)}
	summarize(ms, r, &all, m0, m1)
	ops := len(all.durs)
	ms.set("bench.samples", float64(ops))
	ms.set("bench.host_speed", host.speed())
	rs := sortedCopy(plain.rounds)
	ms.set("bench.round_spread", (rs[len(rs)-1]-rs[0])/median(rs))
	ms.set("bench.untraced_op_s_p50", median(plain.durs))
	ms.set("bench.trace_overhead_frac", median(traced.durs)/median(plain.durs)-1)
	ms.set("runtime.gc_cycles_per_op", float64(m1.gcs-m0.gcs)/float64(ops))
	ms.set("runtime.gc_pause_s_per_op", float64(m1.pauseNs-m0.pauseNs)/1e9/float64(ops))
	ms.set("runtime.heap_live_mb", float64(m1.heapLive)/1e6)
	inst.layerMetrics(ms)

	spans := r.rec.spans
	r.rec = nil
	if err := saveTrace(traceDir, def.name, seed, spans); err != nil {
		return nil, ms, err
	}
	var roots, selfSum time.Duration
	self := selfTimes(spans)
	for i, s := range spans {
		selfSum += self[i]
		if s.Parent < 0 {
			roots += s.End - s.Start
		}
	}
	ms.set("bench.self_time_residual_frac", float64((selfSum-roots).Abs())/float64(roots))
	fmt.Fprintln(os.Stderr, "self time per op by span:")
	byName := selfByName(spans, len(traced.durs))
	for _, name := range slices.Sorted(maps.Keys(byName)) {
		fmt.Fprintf(os.Stderr, "  %-28s %.6f s\n", name, byName[name])
	}

	probeVariants(ms, r, 0.25*seconds)
	if err := probeLayers(ms, inst, w, traceDir); err != nil {
		return nil, ms, err
	}
	return r, ms, inst.close()
}

// saveTrace writes the run's spans where a trace viewer can load them.
func saveTrace(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %s (%d spans)\n", path, len(spans))
	return f.Close()
}

// timeN calls f n times and returns each call's seconds.
func timeN(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}
