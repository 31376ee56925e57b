package main

import "fmt"

// metricDef is one named metric. Bound is the share of the baseline's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, with identical names on every
// workload. BENCHMARK.json repeats this table; a test keeps them equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_s_mean", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
}

// perLayer is measured by the traced run (-trace 1), one layer per prefix.
// Every workload prints every name; 0 stands for "this layer is not on this
// workload's path" (a kernel that rejects the input, graph.* on a square
// product, server.* responses on a library workload).
var perLayer = []metricDef{
	// Demoted from end-to-end. op_s_p50 is not steady where op times are
	// multimodal (msbfs_tallskinny: 40, 60 or 75 ms, so the median hops
	// between modes and spread 20 % over ten seeds while the mean spread
	// 9 %); op_s_p90 and peak_rss_mb did not repeat within a tenth either;
	// op_s_p99 needs 1000 samples, which only the served workloads have;
	// failed_frac is 0 on a healthy run, which an end-to-end metric may
	// never be (the result line's "failed" and "attempted" carry it).
	{Name: "op_s_p50", Unit: "s", Better: "lower"},
	{Name: "op_s_p90", Unit: "s", Better: "lower"},
	{Name: "op_s_p99", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},

	{Name: "spgemm.partition_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.symbolic_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.alloc_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.numeric_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.assemble_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.kernel_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.unaccounted_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.recommend_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.hash_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.hashvec_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.heap_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.tiled_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.sharded_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.auto_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.auto_over_best", Unit: "ratio", Better: "lower"},
	{Name: "spgemm.plan_build_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.plan_exec_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.flop", Unit: "count", Better: "lower"},
	{Name: "spgemm.nnz_c", Unit: "count", Better: "lower"},
	{Name: "spgemm.compression_ratio", Unit: "ratio", Better: "higher"},
	{Name: "spgemm.mflops", Unit: "MFLOP/s", Better: "higher"},
	{Name: "spgemm.bytes_computed", Unit: "B", Better: "lower"},
	{Name: "spgemm.flop_per_byte", Unit: "flop/B", Better: "higher"},
	{Name: "spgemm.w1_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.speedup", Unit: "ratio", Better: "higher"},
	{Name: "spgemm.worker_flop_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "spgemm.spill_s", Unit: "s", Better: "lower"},
	{Name: "spgemm.spill_peak_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "spgemm.spilled_mb", Unit: "MB", Better: "lower"},
	{Name: "spgemm.stripes", Unit: "count", Better: "lower"},

	{Name: "accum.hash_lookups", Unit: "count", Better: "lower"},
	{Name: "accum.hash_probes", Unit: "count", Better: "lower"},
	{Name: "accum.collision_factor", Unit: "ratio", Better: "lower"},
	{Name: "accum.heap_pushes", Unit: "count", Better: "lower"},
	{Name: "accum.upsert_ns", Unit: "ns", Better: "lower"},
	{Name: "accum.extract_sorted_ns", Unit: "ns", Better: "lower"},
	{Name: "accum.extract_unsorted_ns", Unit: "ns", Better: "lower"},

	{Name: "sched.partition_s", Unit: "s", Better: "lower"},
	{Name: "sched.prefixsum_s", Unit: "s", Better: "lower"},
	{Name: "sched.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "sched.forkjoin_us", Unit: "us", Better: "lower"},

	{Name: "matrix.flop_s", Unit: "s", Better: "lower"},
	{Name: "matrix.checksum_s", Unit: "s", Better: "lower"},
	{Name: "matrix.transpose_s", Unit: "s", Better: "lower"},
	{Name: "matrix.wire_encode_s", Unit: "s", Better: "lower"},
	{Name: "matrix.wire_decode_s", Unit: "s", Better: "lower"},
	{Name: "matrix.wire_mb", Unit: "MB", Better: "lower"},

	{Name: "graph.prep_s", Unit: "s", Better: "lower"},
	{Name: "graph.levels", Unit: "count", Better: "lower"},
	{Name: "graph.mask_nnz", Unit: "count", Better: "lower"},

	{Name: "server.kernel_s_p50", Unit: "s", Better: "lower"},
	{Name: "server.queue_s_p50", Unit: "s", Better: "lower"},
	{Name: "server.queue_s_p99", Unit: "s", Better: "lower"},
	{Name: "server.http_overhead_s_p50", Unit: "s", Better: "lower"},
	{Name: "server.upload_s_p50", Unit: "s", Better: "lower"},
	{Name: "server.resp_mb", Unit: "MB", Better: "lower"},
	{Name: "server.plan_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.hash_s", Unit: "s", Better: "lower"},
	{Name: "server.store_put_s", Unit: "s", Better: "lower"},
	{Name: "server.store_get_ns", Unit: "ns", Better: "lower"},
	{Name: "server.plancache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "server.ctx_acquire_ns", Unit: "ns", Better: "lower"},

	{Name: "mempool.live_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles_per_op", Unit: "1/op", Better: "lower"},
	{Name: "runtime.gc_pause_s_per_op", Unit: "s", Better: "lower"},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "memmodel.stanza_bw_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "memmodel.array_mb", Unit: "MB", Better: "higher"},
	{Name: "memmodel.llc_mb", Unit: "MB", Better: "higher"},

	{Name: "bench.samples", Unit: "count", Better: "higher"},
	{Name: "bench.host_speed", Unit: "ratio", Better: "higher"},
	{Name: "bench.round_spread", Unit: "ratio", Better: "lower"},
	{Name: "bench.untraced_op_s_p50", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.self_time_residual_frac", Unit: "ratio", Better: "lower"},
}

// metricValue is how one metric appears in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the metrics of one table. Code paths shared by both
// kinds of run set every name they compute; a name of the other table is
// dropped, an unknown name is a bug.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(traced bool) metricSet {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return metricSet{defs: defs, values: make(map[string]metricValue)}
}

func lookup(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

func (m metricSet) set(name string, v float64) {
	if d := lookup(m.defs, name); d != nil {
		m.values[name] = metricValue{Value: v, Unit: d.Unit}
		return
	}
	if lookup(endToEnd, name) == nil && lookup(perLayer, name) == nil {
		panic(fmt.Sprintf("benchmark: metric %q is in neither table", name))
	}
}

// complete fills every name the run did not set with 0 (see perLayer), so
// the result line always carries the whole table.
func (m metricSet) complete() map[string]metricValue {
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			m.values[d.Name] = metricValue{Unit: d.Unit}
		}
	}
	return m.values
}
