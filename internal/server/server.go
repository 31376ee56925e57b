// Package server turns the SpGEMM library into a long-running multiply
// service: matrices are uploaded once (Matrix Market text or the binary CSR
// wire format), interned by content hash, and multiplied by hash reference
// — so the per-request cost of a repeated product is the numeric phase of a
// cached Plan, not parsing, inspection, or accumulator allocation.
//
// The concurrency design is built from three pieces, each matching a
// documented non-concurrency contract of the library:
//
//   - Store: immutable content-addressed matrices (shared freely).
//   - ContextPool: spgemm.Contexts are NOT safe for concurrent use, so
//     they are checked out exclusively per request through a channel
//     (ownership transfer with a happens-before edge) with bounded-queue
//     admission control in front — saturation degrades to fast 429s.
//   - PlanCache: Plans are immutable after inspection but for the replay
//     map a Plan publishes atomically on its first cache hit;
//     Plan.ExecuteIn supplies the mutable state per call, so one cached
//     Plan serves any number of concurrent requests, each through its own
//     checked-out Context.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// ContentTypeCSRBinary marks a request or response body in the binary CSR
// wire format (matrix.WriteCSRBinary). Anything else uploaded to
// /v1/matrices is parsed as Matrix Market text.
const ContentTypeCSRBinary = "application/x-spgemm-csr"

// Config sizes the server. The zero value of every field selects a
// reasonable default (see withDefaults).
type Config struct {
	// Contexts is the size of the Context checkout pool — the maximum
	// number of multiplies in flight at once. Default 4.
	Contexts int
	// QueueDepth is how many multiply requests may wait for a Context
	// before admission control starts returning 429. Default 64.
	QueueDepth int
	// PlanCacheSize is the maximum number of cached Plans. Default 128.
	PlanCacheSize int
	// Workers is the per-multiply worker count (0 = the scheduler
	// default). With several Contexts in flight the throughput-optimal
	// setting is small; the default is 1.
	Workers int
	// MaxStoreBytes bounds the interned matrix payload; least recently
	// used matrices (and their Plans) are evicted past it. The same number
	// of bytes, counted separately, bounds what the cached Plans retain
	// (PlanCache.SetMaxBytes). Default 4 GiB.
	MaxStoreBytes int64
	// MaxUploadBytes bounds one upload request body. Default 1 GiB.
	MaxUploadBytes int64
	// MaxDim and MaxNNZ bound the shape a single uploaded matrix may
	// claim, enforced before any shape-proportional allocation — a
	// 32-byte header must not make the server commit gigabytes. Defaults
	// 1<<27 and 1<<31.
	MaxDim int
	MaxNNZ int64

	// RequestRing enables request-level tracing: the last RequestRing
	// multiply requests are retained with full span timelines at
	// /debug/requests. 0 (the default) disables request tracing entirely;
	// the disabled path adds zero allocations to the multiply hot path
	// (TestRequestObsDisabledZeroAllocs).
	RequestRing int
	// SlowThreshold marks a request slow: slow requests are retained in a
	// separate ring (surviving recent-ring turnover), logged at warn, and
	// optionally CPU-profiled. 0 disables the slow capturer.
	SlowThreshold time.Duration
	// SlowRing is the slow-request ring capacity (default 32).
	SlowRing int
	// SlowProfileDur, when > 0, captures one CPU profile of this duration
	// when a slow request lands (at most one capture in flight; the last
	// profile is served at /debug/requests/profile).
	SlowProfileDur time.Duration

	// SentryBaseline enables the perf sentry: algorithm name → expected
	// flop/s (see LoadSentryBaseline). Empty disables the sentry.
	SentryBaseline map[string]float64
	// SentryRatio / SentryInterval / SentrySustain / SentryMinSamples tune
	// the sentry; zero values take SentryConfig defaults.
	SentryRatio      float64
	SentryInterval   time.Duration
	SentrySustain    int
	SentryMinSamples int64
}

func (c Config) withDefaults() Config {
	if c.Contexts <= 0 {
		c.Contexts = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 128
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxStoreBytes <= 0 {
		c.MaxStoreBytes = 4 << 30
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 1 << 30
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 1 << 27
	}
	if c.MaxNNZ <= 0 {
		c.MaxNNZ = 1 << 31
	}
	return c
}

// Server is the HTTP multiply service. Create with New; serve via Handler.
type Server struct {
	cfg    Config
	store  *Store
	plans  *PlanCache
	pool   *ContextPool
	reqobs *requestObs // nil = request tracing disabled
	sentry *Sentry     // nil = perf sentry disabled
	mux    *http.ServeMux
}

// New returns a Server sized by cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg}
	s.plans = NewPlanCache(cfg.PlanCacheSize)
	s.plans.SetMaxBytes(cfg.MaxStoreBytes)
	s.store = NewStore(cfg.MaxStoreBytes, s.plans.InvalidateMatrix)
	s.pool = NewContextPool(cfg.Contexts, cfg.QueueDepth)
	s.reqobs = newRequestObs(cfg)
	if len(cfg.SentryBaseline) > 0 {
		s.sentry = NewSentry(SentryConfig{
			Baseline:   cfg.SentryBaseline,
			Ratio:      cfg.SentryRatio,
			Interval:   cfg.SentryInterval,
			Sustain:    cfg.SentrySustain,
			MinSamples: cfg.SentryMinSamples,
		})
		s.sentry.Start()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/matrices", s.handleUpload)
	mux.HandleFunc("GET /v1/matrices/{hash}", s.handleMatrixInfo)
	mux.HandleFunc("POST /v1/multiply", s.handleMultiply)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/requests", s.reqobs.handleRequests)
	mux.HandleFunc("GET /debug/requests/profile", s.reqobs.handleSlowProfile)
	mux.HandleFunc("GET /debug/requests/{id}", s.reqobs.handleRequestTrace)
	// The same observability surface the CLIs expose with -debug-addr:
	// /metrics (now including the server_* families), /debug/vars,
	// /debug/pprof, /debug/loglevel, /trace.json.
	obs.RegisterDebugHandlers(mux, nil)
	s.mux = mux
	return s
}

// Close stops the server's background machinery (the perf sentry). It does
// not touch in-flight HTTP requests — Serve's drain does that.
func (s *Server) Close() {
	if s.sentry != nil {
		s.sentry.Stop()
	}
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the matrix intern table (tests and the serve CLI preload).
func (s *Server) Store() *Store { return s.store }

// Sentry exposes the perf sentry, nil when disabled (tests and /healthz).
func (s *Server) Sentry() *Sentry { return s.sentry }

// handleHealthz reports liveness — and, when the perf sentry holds the
// process degraded, says so with 503 and the failing algorithms, so load
// balancers rotate traffic away from a machine that has stopped performing.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type healthz struct {
		Status    string      `json:"status"`
		Contexts  int         `json:"contexts"`
		Matrices  int         `json:"matrices"`
		Plans     int         `json:"plans"`
		PlanBytes int64       `json:"planBytes"`
		Degraded  []AlgHealth `json:"degraded,omitempty"`
		Since     string      `json:"degradedSince,omitempty"`
	}
	body := healthz{Status: "ok", Contexts: s.pool.Size(), Matrices: s.store.Len(), Plans: s.plans.Len(), PlanBytes: s.plans.Bytes()}
	code := http.StatusOK
	if s.sentry != nil {
		if degraded, failing, since := s.sentry.State(); degraded {
			body.Status = "degraded"
			body.Degraded = failing
			body.Since = since.UTC().Format(time.RFC3339)
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, body)
}

// MatrixInfo is the JSON metadata of an interned matrix.
type MatrixInfo struct {
	Hash     string `json:"hash"`
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
	NNZ      int64  `json:"nnz"`
	Sorted   bool   `json:"sorted"`
	Interned bool   `json:"interned,omitempty"` // true when the upload deduplicated
}

func matrixInfo(hash string, m *matrix.CSR, interned bool) MatrixInfo {
	return MatrixInfo{Hash: hash, Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ(), Sorted: m.Sorted, Interned: interned}
}

// MultiplyRequest is the body of POST /v1/multiply.
type MultiplyRequest struct {
	// A and B are content hashes of previously uploaded matrices.
	A string `json:"a"`
	B string `json:"b"`
	// Algorithm overrides the kernel ("auto", "hash", "hashvec", "heap",
	// ...); empty means auto.
	Algorithm string `json:"algorithm,omitempty"`
	// Semiring selects the ring: "" or "plus-times" (the default, Plan-
	// cacheable), "min-plus", "max-times".
	Semiring string `json:"semiring,omitempty"`
	// Unsorted requests unsorted output rows (skips the per-row sort).
	Unsorted bool `json:"unsorted,omitempty"`
	// Workers overrides the per-multiply worker count (0 = server config).
	Workers int `json:"workers,omitempty"`
	// Return selects the response: "meta" (default) returns metadata only,
	// "store" interns the product and returns its hash, "matrix" streams
	// the product in the binary CSR wire format.
	Return string `json:"return,omitempty"`
}

// MultiplyResponse is the JSON result of a multiply (Return "meta"/"store").
type MultiplyResponse struct {
	Rows           int     `json:"rows"`
	Cols           int     `json:"cols"`
	NNZ            int64   `json:"nnz"`
	Algorithm      string  `json:"algorithm"`
	Semiring       string  `json:"semiring"`
	PlanCacheHit   bool    `json:"planCacheHit"`
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	// QueueSeconds is how long the request waited for a Context before the
	// kernel could start — the server-side admission wait the load
	// generator folds into its queue-wait percentiles.
	QueueSeconds float64 `json:"queueSeconds"`
	Flop         int64   `json:"flop"`
	Hash         string  `json:"hash,omitempty"` // set with Return "store"
	// RequestID links the response to its /debug/requests entry and log
	// lines; empty when request tracing is disabled.
	RequestID string `json:"requestID,omitempty"`
}

// jsonError is the uniform error body.
type jsonError struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	mErrors.With(strconv.Itoa(code)).Inc()
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(jsonError{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// handleUpload parses, validates and interns one matrix.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	mRequests.With("upload").Inc()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	lim := &matrix.ReadLimits{MaxRows: s.cfg.MaxDim, MaxCols: s.cfg.MaxDim, MaxNNZ: s.cfg.MaxNNZ}

	var m *matrix.CSR
	var err error
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	if ct == ContentTypeCSRBinary {
		m, err = matrix.ReadCSRBinaryLimited(body, lim)
	} else {
		m, err = matrix.ReadMatrixMarketLimited(body, lim)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) {
			// A parser may fail on the truncated tail of an over-limit
			// body before it observes the limit error itself; probing the
			// reader distinguishes "too big" from "malformed".
			_, probeErr := body.Read(make([]byte, 1))
			errors.As(probeErr, &tooBig)
		}
		if tooBig != nil {
			s.writeError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", tooBig.Limit)
			return
		}
		s.writeError(w, http.StatusBadRequest, "parse upload: %v", err)
		return
	}
	hash, existed, err := s.store.Put(m)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "intern: %v", err)
		return
	}
	// Put interns the first copy: respond with the stored matrix, which
	// is m unless this upload deduplicated.
	stored, _ := s.store.Get(hash)
	writeJSON(w, http.StatusOK, matrixInfo(hash, stored, existed))
}

// handleMatrixInfo returns metadata for one interned matrix.
func (s *Server) handleMatrixInfo(w http.ResponseWriter, r *http.Request) {
	mRequests.With("matrix_info").Inc()
	hash := r.PathValue("hash")
	m, ok := s.store.Get(hash)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown matrix %q", hash)
		return
	}
	writeJSON(w, http.StatusOK, matrixInfo(hash, m, false))
}

// traceID returns the request ID of a trace, or "" when tracing is off.
func traceID(t *obs.RequestTrace) string {
	if t == nil {
		return ""
	}
	return t.ID
}

// handleMultiply is the core endpoint: admission control, Plan cache,
// checked-out Context, per-request stats — and, when request tracing is on,
// the end-to-end span timeline linking queue wait → Context checkout →
// plan-cache lookup → kernel phases for /debug/requests.
func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	mRequests.With("multiply").Inc()
	rt := s.reqobs.begin()

	// fail answers an error, closes the trace, and emits the error log — the
	// single exit for every non-2xx outcome of this handler.
	fail := func(code int, format string, args ...any) {
		s.writeError(w, code, format, args...)
		log := obs.Logger()
		if rt != nil || log.Enabled(r.Context(), slog.LevelWarn) {
			msg := fmt.Sprintf(format, args...)
			if rt != nil {
				rt.Err = msg
				s.reqobs.finish(rt, code)
			}
			log.Warn("multiply failed", "reqID", traceID(rt), "status", code, "err", msg)
		}
	}

	req, ok := s.decodeMultiplyRequestTraced(w, r, rt)
	if !ok {
		return
	}
	alg, ok := spgemm.ParseAlgorithm(req.Algorithm)
	if !ok {
		fail(http.StatusBadRequest, "unknown algorithm %q (want %s)", req.Algorithm, algorithmNames())
		return
	}
	switch req.Semiring {
	case "", "plus-times", "min-plus", "max-times":
	default:
		fail(http.StatusBadRequest, "unknown semiring %q (want plus-times, min-plus or max-times)", req.Semiring)
		return
	}
	switch req.Return {
	case "", "meta", "store", "matrix":
	default:
		fail(http.StatusBadRequest, "unknown return mode %q (want meta, store or matrix)", req.Return)
		return
	}
	if req.Workers < 0 || req.Workers > 4096 {
		fail(http.StatusBadRequest, "workers %d out of range [0,4096]", req.Workers)
		return
	}
	a, ok := s.store.Get(req.A)
	if !ok {
		fail(http.StatusNotFound, "unknown matrix %q (upload it first)", req.A)
		return
	}
	b, ok := s.store.Get(req.B)
	if !ok {
		fail(http.StatusNotFound, "unknown matrix %q (upload it first)", req.B)
		return
	}
	if a.Cols != b.Rows {
		fail(http.StatusBadRequest,
			"dimension mismatch: %dx%d × %dx%d (inner dimensions %d and %d differ)",
			a.Rows, a.Cols, b.Rows, b.Cols, a.Cols, b.Rows)
		return
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	if rt != nil {
		rt.SetAttr("a", req.A)
		rt.SetAttr("b", req.B)
		rt.SetAttr("alg", alg.String())
		rt.SetAttr("semiring", ringName(req.Semiring))
		rt.SetAttr("workers", workers)
	}

	// Admission control: check a Context out or shed load. The wait is
	// observed per outcome (acquired/rejected/canceled), and on the trace it
	// is "queue.wait" when the request actually queued, "ctx.checkout" when
	// a Context was free immediately.
	start := time.Now()
	ctx, queued, err := s.pool.AcquireTraced(r.Context())
	queueWait := time.Since(start)
	if err != nil {
		if errors.Is(err, ErrSaturated) {
			mQueueWaitRejected.Observe(queueWait.Seconds())
			fail(http.StatusTooManyRequests,
				"server saturated: %d multiplies in flight, %d queued", s.pool.Size(), s.cfg.QueueDepth)
			return
		}
		// Client went away while queued; nothing to answer.
		mQueueWaitCanceled.Observe(queueWait.Seconds())
		mErrors.With("499").Inc()
		if rt != nil {
			rt.Err = "client canceled while queued"
			rt.Span("queue.wait", start, start.Add(queueWait))
			s.reqobs.finish(rt, 499)
		}
		return
	}
	defer s.pool.Release(ctx)
	mQueueWaitAcquired.Observe(queueWait.Seconds())
	if rt != nil {
		name := "ctx.checkout"
		if queued {
			name = "queue.wait"
		}
		rt.Span(name, start, start.Add(queueWait))
		rt.SetAttr("queued", queued)
	}

	stats := &spgemm.ExecStats{}
	c, planHit, err := s.multiply(ctx, stats, a, b, alg, req, workers, rt)
	if err != nil {
		fail(http.StatusUnprocessableEntity, "multiply: %v", err)
		return
	}
	elapsed := time.Since(start)
	recordMultiplyMetrics(stats, elapsed, planHit)
	if stats != nil {
		observeRequestSeconds(stats.Algorithm, elapsed.Seconds())
		if s.sentry != nil {
			s.sentry.Observe(stats.Algorithm.String(), totalFlop(stats), stats.Total)
		}
	}

	resp := MultiplyResponse{
		Rows:           c.Rows,
		Cols:           c.Cols,
		NNZ:            c.NNZ(),
		Algorithm:      resolvedAlgorithm(stats, alg),
		Semiring:       ringName(req.Semiring),
		PlanCacheHit:   planHit,
		ElapsedSeconds: elapsed.Seconds(),
		QueueSeconds:   queueWait.Seconds(),
		Flop:           totalFlop(stats),
		RequestID:      traceID(rt),
	}
	if rt != nil {
		w.Header().Set("X-Request-Id", rt.ID)
	}
	// Once the response is written nothing reads a meta or matrix product
	// again, so it goes back to the Context (still checked out) for the next
	// request's output. A stored product is the store's: never donated.
	switch req.Return {
	case "store":
		// The store budgets by payload; a product built in a larger recycled
		// array would pin the whole array, so intern a right-sized copy.
		if cap(c.Val) > len(c.Val) {
			built := c
			c = built.Clone()
			ctx.Recycle(built)
		}
		hash, _, err := s.store.Put(c)
		if err != nil {
			fail(http.StatusInternalServerError, "intern product: %v", err)
			return
		}
		resp.Hash = hash
		writeJSON(w, http.StatusOK, resp)
	case "matrix":
		w.Header().Set("Content-Type", ContentTypeCSRBinary)
		w.Header().Set("X-Spgemm-Algorithm", resp.Algorithm)
		w.Header().Set("X-Spgemm-Plan-Cache-Hit", strconv.FormatBool(planHit))
		_ = matrix.WriteCSRBinary(w, c)
		ctx.Recycle(c)
	default:
		writeJSON(w, http.StatusOK, resp)
		ctx.Recycle(c)
	}

	// Close the trace (response serialization included) and write the
	// access-log line. The Enabled guard keeps attribute construction off
	// the path when logging is quiet.
	if rt != nil {
		rt.SetAttr("algResolved", resp.Algorithm)
		rt.SetAttr("planHit", planHit)
		rt.SetAttr("flop", resp.Flop)
		rt.SetAttr("nnz", resp.NNZ)
		if stats != nil {
			if cf := stats.CollisionFactor(); cf > 0 {
				rt.SetAttr("collisionFactor", cf)
			}
		}
		s.reqobs.finish(rt, http.StatusOK)
	}
	if log := obs.Logger(); log.Enabled(r.Context(), slog.LevelInfo) {
		log.Info("multiply",
			"reqID", traceID(rt), "status", http.StatusOK,
			"a", req.A, "b", req.B,
			"alg", resp.Algorithm, "planHit", planHit,
			"ms", float64(elapsed)/1e6, "queueMs", float64(queueWait)/1e6,
			"flop", resp.Flop, "nnz", resp.NNZ)
	}
}

// decodeMultiplyRequest strictly parses the JSON body: unknown fields,
// trailing garbage and non-JSON bodies are all 400s — silently ignoring
// malformed requests is how wrong answers hide.
func (s *Server) decodeMultiplyRequest(w http.ResponseWriter, r *http.Request) (MultiplyRequest, bool) {
	var req MultiplyRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return req, false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		s.writeError(w, http.StatusBadRequest, "trailing data after request body")
		return req, false
	}
	if req.A == "" || req.B == "" {
		s.writeError(w, http.StatusBadRequest, "both \"a\" and \"b\" matrix hashes are required")
		return req, false
	}
	return req, true
}

// decodeMultiplyRequestTraced is decodeMultiplyRequest plus trace closure on
// the failure path (decodeMultiplyRequest writes its own 400 body).
func (s *Server) decodeMultiplyRequestTraced(w http.ResponseWriter, r *http.Request, rt *obs.RequestTrace) (MultiplyRequest, bool) {
	req, ok := s.decodeMultiplyRequest(w, r)
	if !ok && rt != nil {
		rt.Err = "malformed request body"
		s.reqobs.finish(rt, http.StatusBadRequest)
	}
	return req, ok
}

// kernelClock reads the wall clock only when a trace wants it — paired with
// stampKernel, it brackets the kernel call without costing the disabled path
// a clock read.
func kernelClock(rt *obs.RequestTrace) time.Time {
	if rt == nil {
		return time.Time{}
	}
	return time.Now()
}

// multiply runs a plus-times product through the Plan cache — every kernel
// has a Plan, so after a miss there is one path: build, cache, execute, and a
// product no kernel accepts (heap on unsorted rows of B) fails at the build —
// and the other semirings through a plain MultiplyRing. The checked-out
// Context supplies all mutable kernel state either way. A non-nil rt receives
// the plan-cache and kernel spans; kernel phase sub-spans are reconstructed
// from stats after the call (ExecuteIn resets stats, so Total covers exactly
// the bracketed kernel).
func (s *Server) multiply(ctx *spgemm.Context, stats *spgemm.ExecStats, a, b *matrix.CSR,
	alg spgemm.Algorithm, req MultiplyRequest, workers int, rt *obs.RequestTrace) (*matrix.CSR, bool, error) {

	opt := &spgemm.Options{
		Algorithm: alg,
		Unsorted:  req.Unsorted,
		Workers:   workers,
		Context:   ctx,
		Stats:     stats,
	}
	switch req.Semiring {
	case "min-plus":
		kt := kernelClock(rt)
		c, err := spgemm.MultiplyRing(semiring.MinPlusF64{}, a, b, optG(opt))
		if err == nil {
			stampKernel(rt, kt, stats)
		}
		return c, false, err
	case "max-times":
		kt := kernelClock(rt)
		c, err := spgemm.MultiplyRing(semiring.MaxTimesF64{}, a, b, optG(opt))
		if err == nil {
			stampKernel(rt, kt, stats)
		}
		return c, false, err
	}

	key := PlanKey{A: req.A, B: req.B, Algorithm: alg, Unsorted: req.Unsorted, Workers: workers}
	lt := kernelClock(rt)
	plan, hit := s.plans.Get(key)
	if rt != nil {
		rt.Span("plan.lookup", lt, time.Now())
		rt.SetAttr("planHit", hit)
	}
	if hit {
		kt := kernelClock(rt)
		c, err := plan.ExecuteIn(ctx, stats)
		if err == nil {
			stampKernel(rt, kt, stats)
			mPlanHits.Inc()
			return c, true, nil
		}
		// Interned matrices are immutable, so a stale plan should be
		// impossible — but if one surfaces, drop it and rebuild below.
		if !errors.Is(err, spgemm.ErrPlanStale) {
			return nil, false, err
		}
		s.plans.Remove(key)
	}
	mPlanMisses.Inc()
	bt := kernelClock(rt)
	plan, err := spgemm.NewPlan(a, b, opt)
	if err != nil {
		return nil, false, err
	}
	if rt != nil {
		rt.Span("plan.build", bt, time.Now())
	}
	s.plans.Add(key, plan)
	kt := kernelClock(rt)
	c, err := plan.ExecuteIn(ctx, stats)
	if err == nil {
		stampKernel(rt, kt, stats)
	}
	return c, false, err
}

// optG converts the float64 Options to the generic form for MultiplyRing
// with a named ring.
func optG(o *spgemm.Options) *spgemm.OptionsG[float64] {
	return &spgemm.OptionsG[float64]{
		Algorithm: o.Algorithm,
		Workers:   o.Workers,
		Unsorted:  o.Unsorted,
		Stats:     o.Stats,
		Context:   o.Context,
	}
}

func ringName(s string) string {
	if s == "" {
		return "plus-times"
	}
	return s
}

// algorithmNames lists every name the "algorithm" field accepts.
func algorithmNames() string {
	names := make([]string, spgemm.NumAlgorithms)
	for i := range names {
		names[i] = spgemm.Algorithm(i).String()
	}
	return strings.Join(names, ", ")
}

// resolvedAlgorithm names the kernel that actually ran: AlgAuto resolves
// during execution and the choice is recorded in the stats.
func resolvedAlgorithm(stats *spgemm.ExecStats, requested spgemm.Algorithm) string {
	if stats != nil {
		return stats.Algorithm.String()
	}
	return requested.String()
}

func totalFlop(stats *spgemm.ExecStats) int64 {
	if stats == nil {
		return 0
	}
	var flop int64
	for _, ws := range stats.Workers {
		flop += ws.Flop
	}
	return flop
}

// recordMultiplyMetrics folds one request's ExecStats into the server_*
// families.
func recordMultiplyMetrics(stats *spgemm.ExecStats, elapsed time.Duration, planHit bool) {
	mMultiplies.Inc()
	mMultiplySeconds.Observe(elapsed.Seconds())
	if stats != nil {
		mMultiplyFlop.Add(totalFlop(stats))
		for p := spgemm.Phase(0); p < spgemm.NumPhases; p++ {
			if d := stats.Phases[p]; d > 0 {
				mPhaseNanos.With(p.String()).Add(int64(d))
			}
		}
	}
}

// Connection timeouts of Serve. readHeaderTimeout is a variable so that a test
// can see a silent client dropped without waiting ten seconds for it.
var readHeaderTimeout = 10 * time.Second

const idleTimeout = 2 * time.Minute

// Serve runs h on ln until ctx is canceled, then shuts down gracefully:
// the listener closes immediately, in-flight requests drain for up to
// grace, then remaining connections are closed. This is the same
// drain-don't-truncate exit path the CLIs use for their debug servers.
//
// A connection gets readHeaderTimeout to send a request's headers and is
// closed after idleTimeout between requests, so clients that connect and say
// nothing cannot hold sockets forever. There is no write timeout: a matrix
// response is as large as the product and as slow as its reader.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, grace time.Duration) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		return srv.Shutdown(sctx)
	}
}
