// Command spgemm-serve runs the SpGEMM multiply server: a long-running
// HTTP/JSON service that interns uploaded matrices by content hash and
// multiplies them on a bounded pool of reusable kernel contexts, with a
// concurrent plan cache for repeat products.
//
// Usage:
//
//	spgemm-serve -addr :8080 -contexts 8 -queue 128
//	spgemm-serve -addr :8080 -sentry -drain requests.json
//
// Endpoints:
//
//	POST /v1/matrices          upload (Matrix Market text or binary CSR)
//	GET  /v1/matrices/{hash}   metadata for an interned matrix
//	POST /v1/multiply          multiply two interned matrices by hash
//	GET  /healthz              liveness (503 while the perf sentry is degraded)
//	GET  /metrics              Prometheus text exposition (server_* series)
//	GET  /debug/requests       the last 256 requests with their stage spans (JSON)
//	GET  /debug/requests/{id}  one request as Chrome trace JSON (Perfetto)
//	GET  /debug/loglevel       read or switch the structured log level
//	GET  /debug/pprof/         Go's profiles (a CPU profile: profile?seconds=N)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		contexts   = flag.Int("contexts", 0, "size of the kernel context pool (0 = default)")
		queue      = flag.Int("queue", 0, "admission queue depth before shedding with 429 (0 = default)")
		planCache  = flag.Int("plan-cache", 0, "max cached multiply plans (0 = default)")
		workers    = flag.Int("workers", 0, "worker threads per multiply (0 = default)")
		storeBytes = flag.Int64("max-store-bytes", 0, "matrix store byte budget before LRU eviction (0 = default)")
		uploadMax  = flag.Int64("max-upload-bytes", 0, "largest accepted upload body (0 = default)")
		maxDim     = flag.Int("max-dim", 0, "largest accepted matrix dimension (0 = default)")
		maxNNZ     = flag.Int64("max-nnz", 0, "largest accepted nonzero count (0 = default)")
		grace      = flag.Duration("grace", 5*time.Second, "shutdown drain timeout")

		logLevel = flag.String("log-level", "info", "structured log level: debug|info|warn|error|off (runtime-switchable at /debug/loglevel)")

		sentry = flag.Bool("sentry", false, "arm the perf sentry: /healthz degrades while an algorithm runs 4x under its own peak flop/s")

		drainPath = flag.String("drain", "", "dump the request ring as JSON to this path on shutdown (\"-\" = stderr)")
	)
	flag.Parse()

	// Structured logging: JSON lines on stderr, level switchable at runtime
	// via /debug/loglevel. "off" keeps the zero-cost disabled handler.
	if *logLevel != "off" {
		lvl, err := obs.ParseLogLevel(*logLevel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spgemm-serve: %v\n", err)
			os.Exit(2)
		}
		obs.SetLogger(obs.ConfigureLogger(os.Stderr, lvl))
	}
	log := obs.Logger()

	cfg := server.Config{
		Contexts:       *contexts,
		QueueDepth:     *queue,
		PlanCacheSize:  *planCache,
		Workers:        *workers,
		MaxStoreBytes:  *storeBytes,
		MaxUploadBytes: *uploadMax,
		MaxDim:         *maxDim,
		MaxNNZ:         *maxNNZ,
		Sentry:         *sentry,
	}
	s := server.New(cfg)
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-serve: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "spgemm-serve: listening on http://%s\n", ln.Addr())
	log.Info("serving", "addr", ln.Addr().String(), "sentry", *sentry, "logLevel", obs.LogLevel().String())

	err = server.Serve(ctx, ln, s.Handler(), *grace)

	// Shutdown order: in-flight requests have drained (server.Serve), so the
	// ring is quiescent — flush it before the process exits.
	drainRequests(s, *drainPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemm-serve: %v\n", err)
		os.Exit(1)
	}
	log.Info("shutdown complete")
}

// drainRequests exports the request ring — the tail of request history —
// before the process exits. Losing them on SIGTERM is losing the evidence of
// whatever made someone send the SIGTERM.
func drainRequests(s *server.Server, drainPath string) {
	if drainPath == "" {
		return
	}
	log := obs.Logger()
	out := os.Stderr
	if drainPath != "-" {
		f, err := os.Create(drainPath)
		if err != nil {
			log.Error("drain requests", "err", err)
			return
		}
		defer f.Close()
		out = f
	}
	n := s.DrainRequests(func(b []byte) { _, _ = out.Write(b) })
	log.Info("drained request ring", "requests", n, "to", drainPath)
}
