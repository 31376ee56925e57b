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
	"io"
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
	// (their Plan.Bytes). Default 4 GiB.
	MaxStoreBytes int64
	// MaxUploadBytes bounds one upload request body. Default 1 GiB.
	MaxUploadBytes int64
	// MaxDim and MaxNNZ bound the shape a single uploaded matrix may
	// claim, enforced before any shape-proportional allocation — a
	// 32-byte header must not make the server commit gigabytes. Defaults
	// 1<<27 and 1<<31.
	MaxDim int
	MaxNNZ int64
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
	cfg   Config
	store *Store
	plans *PlanCache
	pool  *ContextPool
	ring  *requestRing
	mux   *http.ServeMux
}

// New returns a Server sized by cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg}
	s.plans = newPlanCache(cfg.PlanCacheSize, cfg.MaxStoreBytes)
	s.store = NewStore(cfg.MaxStoreBytes, s.plans.InvalidateMatrix)
	s.pool = NewContextPool(cfg.Contexts, cfg.QueueDepth)
	s.ring = newRequestRing(ringSize)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/matrices", s.handleUpload)
	mux.HandleFunc("GET /v1/matrices/{hash}", s.handleMatrixInfo)
	mux.HandleFunc("POST /v1/multiply", s.handleMultiply)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/requests", s.ring.handleRequests)
	mux.HandleFunc("GET /debug/requests/{id}", s.ring.handleRequestTrace)
	// The same observability surface the CLIs expose with -debug-addr:
	// /metrics (now including the server_* families), /debug/vars,
	// /debug/pprof, /debug/loglevel.
	obs.RegisterDebugHandlers(mux)
	s.mux = mux
	return s
}

// Close releases nothing: the server starts no goroutine of its own, and
// Serve's drain owns in-flight HTTP requests. The repo benchmark still calls
// it.
func (s *Server) Close() {}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// handleHealthz reports liveness and the size of what the process holds.
// Throughput per algorithm is on /metrics (server_request_seconds{alg},
// server_multiply_flop_total, server_multiply_phase_nanos_total), where a
// monitor can alert on it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type healthz struct {
		Status    string `json:"status"`
		Contexts  int    `json:"contexts"`
		Matrices  int    `json:"matrices"`
		Plans     int    `json:"plans"`
		PlanBytes int64  `json:"planBytes"`
	}
	writeJSON(w, http.StatusOK, healthz{Status: "ok", Contexts: s.pool.Size(), Matrices: s.store.Len(), Plans: s.plans.Len(), PlanBytes: s.plans.Bytes()})
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
	// Algorithm overrides the kernel: "auto", "hash" or "heap"; empty means
	// auto. The name of a retired kernel (tiled, sharded, hashvec) is a 400.
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
	// RequestID links the response to its log line and, while the request
	// is among the last 256, to its /debug/requests entry.
	RequestID string `json:"requestID,omitempty"`
}

// statusClientClosed is what a request is recorded as when its client left
// before there was anything to answer (nginx's 499; never sent).
const statusClientClosed = 499

// jsonError is the uniform error body.
type jsonError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	return json.NewEncoder(w).Encode(v)
}

// handleUpload parses, validates and interns one matrix.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	rec := s.begin("upload")
	s.upload(w, r, &rec)
	s.finish(r.Context(), w, &rec)
}

// upload fills rec with the stages and the outcome of one upload.
func (s *Server) upload(w http.ResponseWriter, r *http.Request, rec *record) {
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
	rec.tick(stageDecode)
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
			rec.fail(http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", tooBig.Limit)
		} else {
			rec.fail(http.StatusBadRequest, "parse upload: %v", err)
		}
		return
	}
	hash, existed, err := s.store.Put(m)
	rec.tick(stageIntern)
	if err != nil {
		rec.fail(http.StatusInternalServerError, "intern: %v", err)
		return
	}
	// Answer from m even when the upload deduplicated: an equal hash is an
	// equal SPGB encoding, so m has the stored copy's shape, nnz and
	// sortedness, and a concurrent upload may already have evicted that copy.
	rec.hash, rec.nnz, rec.interned = hash, m.NNZ(), existed
	rec.wrote(writeJSON(w, http.StatusOK, matrixInfo(hash, m, existed)))
}

// handleMatrixInfo returns metadata for one interned matrix.
func (s *Server) handleMatrixInfo(w http.ResponseWriter, r *http.Request) {
	rec := s.begin("matrix_info")
	s.info(w, r, &rec)
	s.finish(r.Context(), w, &rec)
}

// info fills rec with the lookup and the outcome of one metadata request.
func (s *Server) info(w http.ResponseWriter, r *http.Request, rec *record) {
	hash := r.PathValue("hash")
	m, ok := s.store.Get(hash)
	rec.tick(stageDecode)
	if !ok {
		rec.fail(http.StatusNotFound, "unknown matrix %q", hash)
		return
	}
	rec.hash, rec.nnz = hash, m.NNZ()
	rec.wrote(writeJSON(w, http.StatusOK, matrixInfo(hash, m, false)))
}

// handleMultiply is the core endpoint: admission control, Plan cache,
// checked-out Context, kernel. multiply fills the request's record stage by
// stage; finish is the one place anything is made of it.
func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	rec := s.begin("multiply")
	s.multiply(w, r, &rec)
	s.finish(r.Context(), w, &rec)
}

// multiply fills rec with the stages and the outcome of one multiply. Every
// return leaves rec either failed (finish answers it) or already answered.
func (s *Server) multiply(w http.ResponseWriter, r *http.Request, rec *record) {
	a, b, ok := s.decodeMultiply(w, r, rec)
	rec.tick(stageDecode)
	if !ok {
		return
	}

	// Admission control: check a Context out or shed load. The wait is
	// "queue.wait" when the request actually queued, "ctx.checkout" when a
	// Context was free immediately, and is observed per outcome
	// (acquired/rejected/canceled).
	ctx, queued, err := s.pool.AcquireTraced(r.Context())
	rec.queued = queued
	if queued {
		rec.tick(stageQueueWait)
	} else {
		rec.tick(stageCtxCheckout)
	}
	if errors.Is(err, ErrSaturated) {
		rec.admission = mQueueWaitRejected
		rec.fail(http.StatusTooManyRequests,
			"server saturated: %d multiplies in flight, %d queued", s.pool.Size(), s.cfg.QueueDepth)
		return
	}
	if err != nil {
		rec.admission = mQueueWaitCanceled
		rec.fail(statusClientClosed, "client canceled while queued")
		return
	}
	defer s.pool.Release(ctx)
	rec.admission = mQueueWaitAcquired

	c, err := s.product(ctx, a, b, rec)
	if err != nil {
		rec.fail(http.StatusUnprocessableEntity, "multiply: %v", err)
		return
	}
	resp := rec.response(c)
	w.Header().Set("X-Request-Id", rec.id)
	// Once the response is written nothing reads a meta or matrix product
	// again, so it goes back to the Context (still checked out) for the next
	// request's output. A stored product is the store's: never donated.
	switch rec.req.Return {
	case "store":
		// The store budgets by payload; a product built in larger recycled
		// arrays would pin them whole, so intern a right-sized copy. Each
		// array comes from its own donation slot, so any one may be larger.
		if cap(c.RowPtr) > len(c.RowPtr) || cap(c.ColIdx) > len(c.ColIdx) || cap(c.Val) > len(c.Val) {
			built := c
			c = built.Clone()
			ctx.Recycle(built)
		}
		hash, _, err := s.store.Put(c)
		rec.tick(stageIntern)
		if err != nil {
			rec.fail(http.StatusInternalServerError, "intern product: %v", err)
			return
		}
		resp.Hash = hash
		rec.wrote(writeJSON(w, http.StatusOK, resp))
	case "matrix":
		w.Header().Set("Content-Type", ContentTypeCSRBinary)
		w.Header().Set("X-Spgemm-Algorithm", resp.Algorithm)
		w.Header().Set("X-Spgemm-Plan-Cache-Hit", strconv.FormatBool(rec.planHit))
		rec.wrote(matrix.WriteCSRBinary(w, c))
		ctx.Recycle(c)
	default:
		rec.wrote(writeJSON(w, http.StatusOK, resp))
		ctx.Recycle(c)
	}
}

// decodeMultiply strictly parses the JSON body into rec.req — unknown fields,
// trailing garbage and non-JSON bodies are all 400s: silently ignoring
// malformed requests is how wrong answers hide — validates it, and looks both
// operands up.
func (s *Server) decodeMultiply(w http.ResponseWriter, r *http.Request, rec *record) (a, b *matrix.CSR, ok bool) {
	req := &rec.req
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, nil, rec.fail(http.StatusBadRequest, "decode request: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, nil, rec.fail(http.StatusBadRequest, "trailing data after request body")
	}
	if req.A == "" || req.B == "" {
		return nil, nil, rec.fail(http.StatusBadRequest, "both \"a\" and \"b\" matrix hashes are required")
	}
	if rec.alg, ok = spgemm.ParseAlgorithm(req.Algorithm); !ok {
		return nil, nil, rec.fail(http.StatusBadRequest, "unknown algorithm %q (want %s)", req.Algorithm, algorithmNames())
	}
	switch req.Semiring {
	case "", "plus-times", "min-plus", "max-times":
	default:
		return nil, nil, rec.fail(http.StatusBadRequest, "unknown semiring %q (want plus-times, min-plus or max-times)", req.Semiring)
	}
	switch req.Return {
	case "", "meta", "store", "matrix":
	default:
		return nil, nil, rec.fail(http.StatusBadRequest, "unknown return mode %q (want meta, store or matrix)", req.Return)
	}
	if req.Workers < 0 || req.Workers > 4096 {
		return nil, nil, rec.fail(http.StatusBadRequest, "workers %d out of range [0,4096]", req.Workers)
	}
	if a, ok = s.store.Get(req.A); !ok {
		return nil, nil, rec.fail(http.StatusNotFound, "unknown matrix %q (upload it first)", req.A)
	}
	if b, ok = s.store.Get(req.B); !ok {
		return nil, nil, rec.fail(http.StatusNotFound, "unknown matrix %q (upload it first)", req.B)
	}
	if a.Cols != b.Rows {
		return nil, nil, rec.fail(http.StatusBadRequest,
			"dimension mismatch: %dx%d × %dx%d (inner dimensions %d and %d differ)",
			a.Rows, a.Cols, b.Rows, b.Cols, a.Cols, b.Rows)
	}
	rec.workers = req.Workers
	if rec.workers == 0 {
		rec.workers = s.cfg.Workers
	}
	return a, b, true
}

// product runs a plus-times product through the Plan cache — every kernel
// has a Plan, so after a miss there is one path: build, cache, execute, and a
// product no kernel accepts (heap on unsorted rows of B) fails at the build —
// and the other semirings through a plain MultiplyRing. The checked-out
// Context supplies all mutable kernel state either way, rec.stats receives
// the kernel's phases (ExecuteIn resets it, so Total covers exactly the call
// the kernel stage brackets), and each step closes its stage.
func (s *Server) product(ctx *spgemm.Context, a, b *matrix.CSR, rec *record) (*matrix.CSR, error) {
	opt := spgemm.Options{Algorithm: rec.alg, Unsorted: rec.req.Unsorted, Workers: rec.workers, Context: ctx}
	if ring := rec.req.Semiring; ring == "min-plus" || ring == "max-times" {
		opt.Stats = &rec.stats
		var c *matrix.CSR
		var err error
		if ring == "min-plus" {
			c, err = spgemm.MultiplyRing(semiring.MinPlusF64{}, a, b, &opt)
		} else {
			c, err = spgemm.MultiplyRing(semiring.MaxTimesF64{}, a, b, &opt)
		}
		rec.tick(stageKernel)
		return c, err
	}

	key := PlanKey{A: rec.req.A, B: rec.req.B, Algorithm: rec.alg, Unsorted: rec.req.Unsorted, Workers: rec.workers}
	plan, hit := s.plans.Get(key)
	rec.tick(stagePlanLookup)
	if hit {
		c, err := plan.ExecuteIn(ctx, &rec.stats)
		if !errors.Is(err, spgemm.ErrPlanStale) {
			rec.tick(stageKernel)
			rec.planHit = err == nil
			return c, err
		}
		// Interned matrices are immutable, so a stale plan should be
		// impossible — but if one surfaces, drop it and rebuild below (the
		// refused execute did no work; its time goes to plan.build).
		s.plans.Remove(key)
	}
	rec.planMiss = true
	plan, err := spgemm.NewPlan(a, b, &opt)
	if err == nil {
		s.plans.Add(key, plan)
	}
	rec.tick(stagePlanBuild)
	if err != nil {
		return nil, err
	}
	c, err := plan.ExecuteIn(ctx, &rec.stats)
	rec.tick(stageKernel)
	return c, err
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
