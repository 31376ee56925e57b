package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// expvarOnce guards the one-time expvar publication of the default registry.
// expvar.Publish panics on duplicate names, and the default registry is
// process-wide, so publishing once is both necessary and sufficient.
var expvarOnce sync.Once

// publishExpvar bridges the default registry into the expvar namespace under
// the key "metrics", making every counter visible at /debug/vars alongside
// the runtime's memstats.
func publishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("metrics", expvar.Func(func() any {
			return defaultRegistry.snapshot()
		}))
	})
}

// DebugServer is the opt-in debug HTTP surface. It serves:
//
//	/metrics         Prometheus text exposition of the default registry
//	/debug/vars      expvar (runtime memstats + the registry bridge)
//	/debug/pprof     the standard pprof index (profile, heap, trace, ...)
//	/debug/loglevel  the log level, read with GET and set with PUT
//
// Close shuts the listener down; a DebugServer holds no other state.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// RegisterDebugHandlers mounts the debug surface (/metrics, /debug/vars,
// /debug/pprof, /debug/loglevel) of the default registry on mux. The multiply
// server reuses this to expose the same endpoints on its API listener;
// StartDebugServer wraps it in a standalone server for the CLIs.
func RegisterDebugHandlers(mux *http.ServeMux) {
	publishExpvar()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = defaultRegistry.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/loglevel", handleLogLevel)
}

// StartDebugServer listens on addr (e.g. "localhost:6060", or "localhost:0"
// to pick a free port) and serves the debug surface in a background
// goroutine.
func StartDebugServer(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "spgemm debug surface\n\n/metrics\n/debug/vars\n/debug/pprof/\n/debug/loglevel\n")
	})
	RegisterDebugHandlers(mux)
	s := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the address the server is listening on (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately, dropping in-flight requests.
// Prefer Shutdown at process exit so a scrape racing the exit is not
// truncated mid-body.
func (s *DebugServer) Close() error { return s.srv.Close() }

// Shutdown gracefully shuts the server down: the listener closes
// immediately, in-flight requests (a /metrics scrape, a pprof profile)
// drain until ctx expires, then remaining connections are closed.
func (s *DebugServer) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// ShutdownTimeout is Shutdown with a deadline, shaped for the CLIs'
// defer-at-exit call sites.
func (s *DebugServer) ShutdownTimeout(d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return s.Shutdown(ctx)
}
