// Package obs is the observability subsystem: a registry of atomic counters/
// gauges/histograms with Prometheus text exposition and an expvar bridge, a
// structured logger, and an opt-in debug HTTP surface (/metrics,
// /debug/vars, /debug/pprof, /debug/loglevel) over the default registry.
//
// The package keeps no clock of its own. What one multiply spent, per phase
// and per worker, is the caller's spgemm.ExecStats — the record that
// cmd/spgemm -stats and spgemm-bench -exp fig8 print and the multiply
// server's request record carries —
// and a goroutine timeline of the whole process is Go's execution tracer at
// /debug/pprof/trace. Metric updates are single uncontended atomic adds
// placed at per-call or per-region granularity, never inside per-row or
// per-element loops.
package obs
