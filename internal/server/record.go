package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/spgemm"
)

// stage is one named interval of a served request. A request's stages are
// measured back to back — every clock read of record.tick closes one stage
// and opens the next — so they sum to the request's total exactly, the way
// spgemm's phaseTimer makes ExecStats.Phases sum to a multiply. The constants
// are in the order a request passes through them, which is the order their
// spans are laid out in.
type stage int

const (
	stageDecode      stage = iota // read, parse and validate the body; look the operands up
	stageQueueWait                // waited in the admission queue for a Context ...
	stageCtxCheckout              // ... or found one free: exactly one of the two is charged
	stagePlanLookup               // PlanCache.Get
	stagePlanBuild                // on a miss: spgemm.NewPlan and PlanCache.Add
	stageKernel                   // Plan.ExecuteIn or MultiplyRing: ExecStats.Total plus the call around it
	stageIntern                   // Store.Put of an upload or of a return=store product: hash and insert
	stageRespond                  // encode and write the response, donate the product, release the Context
	numStages
)

var stageNames = [numStages]string{
	"decode", "queue.wait", "ctx.checkout", "plan.lookup", "plan.build", "kernel", "intern", "respond",
}

// record is everything the server knows about one request. The handlers fill
// it and do nothing else with what they learn; finish is their only exit and
// the only place a metric, a log line or a sentry sample is derived from it,
// and the request ring keeps a copy from which the trace views are rendered.
// A path that does not reach finish is not observed at all, so there is no
// partially observed request.
type record struct {
	route string // "multiply", "upload" or "matrix_info"
	id    string // issued by begin

	start, last time.Time
	stages      [numStages]time.Duration
	stats       spgemm.ExecStats // the kernel's own record; zero if none ran

	// status is the HTTP status answered (or statusClientClosed). err says
	// why it is not 200 — or, beside a 200, that the response could not be
	// written out.
	status int
	err    string

	req       MultiplyRequest
	alg       spgemm.Algorithm // as requested; stats.Algorithm is what ran
	workers   int              // 0 until the request validated
	admission *obs.Histogram   // server_queue_wait_seconds child; nil before admission
	queued    bool
	planHit   bool   // a cached Plan produced the product
	planMiss  bool   // the lookup missed, or hit a stale Plan
	nnz       int64  // of the product, or of the uploaded or looked-up matrix
	hash      string // of the uploaded or looked-up matrix
	interned  bool   // the upload deduplicated
}

// begin opens the record of one request; its clock starts now.
func (s *Server) begin(route string) record {
	now := time.Now()
	return record{route: route, id: s.ring.nextID(), start: now, last: now}
}

// tick charges the time since the previous tick to st.
func (rec *record) tick(st stage) {
	now := time.Now()
	rec.stages[st] += now.Sub(rec.last)
	rec.last = now
}

// fail sets the outcome of a request that will not be answered 200. It
// returns false, for the handler step that reports failure that way.
func (rec *record) fail(code int, format string, args ...any) bool {
	rec.status, rec.err = code, fmt.Sprintf(format, args...)
	return false
}

// wrote sets the outcome of a request whose 200 response has been written,
// or has failed to be.
func (rec *record) wrote(err error) {
	rec.status = http.StatusOK
	if err != nil {
		rec.err = "write response: " + err.Error()
	}
}

func (rec *record) total() time.Duration { return rec.last.Sub(rec.start) }

// queueWait is the admission wait, whichever of its two stages it went to.
func (rec *record) queueWait() time.Duration {
	return rec.stages[stageQueueWait] + rec.stages[stageCtxCheckout]
}

// elapsed is what MultiplyResponse.ElapsedSeconds reports: admission through
// kernel, without the decode before and the respond after.
func (rec *record) elapsed() time.Duration {
	var d time.Duration
	for st := stageQueueWait; st <= stageKernel; st++ {
		d += rec.stages[st]
	}
	return d
}

func (rec *record) flop() int64 { return rec.stats.TotalWorker().Flop }

// response is the JSON view of a multiply whose kernel has produced c.
func (rec *record) response(c *matrix.CSR) MultiplyResponse {
	rec.nnz = c.NNZ()
	return MultiplyResponse{
		Rows:           c.Rows,
		Cols:           c.Cols,
		NNZ:            rec.nnz,
		Algorithm:      rec.stats.Algorithm.String(),
		Semiring:       ringName(rec.req.Semiring),
		PlanCacheHit:   rec.planHit,
		ElapsedSeconds: rec.elapsed().Seconds(),
		QueueSeconds:   rec.queueWait().Seconds(),
		Flop:           rec.flop(),
		RequestID:      rec.id,
	}
}

// finish is the one exit of every /v1 handler. It answers a request the
// handler failed, closes the respond stage, derives the server_* families,
// the sentry sample and the log line, and copies the record into the request
// ring, from which /debug/requests renders its trace when asked.
func (s *Server) finish(ctx context.Context, w http.ResponseWriter, rec *record) {
	failed := rec.status != http.StatusOK
	if failed && rec.status != statusClientClosed {
		if rec.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		_ = writeJSON(w, rec.status, jsonError{Error: rec.err}) // the request already has its error
	}
	rec.tick(stageRespond)

	mRequests.With(rec.route).Inc()
	if failed {
		mErrors.With(strconv.Itoa(rec.status)).Inc()
	}
	if rec.admission != nil {
		rec.admission.Observe(rec.queueWait().Seconds())
	}
	if rec.planHit {
		mPlanHits.Inc()
	}
	if rec.planMiss {
		mPlanMisses.Inc()
	}
	if rec.route == "multiply" && !failed {
		flop := rec.flop()
		mMultiplies.Inc()
		mMultiplyFlop.Add(flop)
		for p, d := range rec.stats.Phases {
			if d > 0 {
				mPhaseNanos.With(spgemm.Phase(p).String()).Add(int64(d))
			}
		}
		requestSecondsByAlg[rec.stats.Algorithm].Observe(rec.elapsed().Seconds())
		if s.sentry != nil {
			s.sentry.observe(rec.stats.Algorithm.String(), flop, rec.stats.Total)
		}
	}

	level, msg := slog.LevelInfo, rec.route
	if rec.err != "" {
		level, msg = slog.LevelWarn, rec.route+" failed"
	}
	if log := obs.Logger(); log.Enabled(ctx, level) {
		log.LogAttrs(ctx, level, msg, rec.logAttrs()...)
	}
	s.ring.add(rec)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// facts is what the log line and the request view both say of the request
// beyond its outcome and its timing: what was asked for, as far as it
// validated, and what a request that was answered 200 produced.
func (rec *record) facts() []slog.Attr {
	f := append(make([]slog.Attr, 0, 12), slog.String("route", rec.route))
	if rec.workers > 0 {
		f = append(f, slog.String("a", rec.req.A), slog.String("b", rec.req.B), slog.String("alg", rec.alg.String()),
			slog.String("semiring", ringName(rec.req.Semiring)), slog.Int("workers", rec.workers))
	}
	if rec.admission != nil {
		f = append(f, slog.Bool("queued", rec.queued))
	}
	if rec.planHit || rec.planMiss {
		f = append(f, slog.Bool("planHit", rec.planHit))
	}
	switch {
	case rec.status != http.StatusOK:
	case rec.route == "multiply":
		f = append(f, slog.String("algResolved", rec.stats.Algorithm.String()), slog.Int64("flop", rec.flop()), slog.Int64("nnz", rec.nnz))
		if cf := rec.stats.CollisionFactor(); cf > 0 {
			f = append(f, slog.Float64("collisionFactor", cf))
		}
	default:
		f = append(f, slog.String("hash", rec.hash), slog.Int64("nnz", rec.nnz))
		if rec.route == "upload" {
			f = append(f, slog.Bool("interned", rec.interned))
		}
	}
	return f
}

// logAttrs is the log-line view: outcome, facts, and every stage that took
// time under stageMs.
func (rec *record) logAttrs() []slog.Attr {
	attrs := []slog.Attr{slog.String("reqID", rec.id), slog.Int("status", rec.status)}
	if rec.err != "" {
		attrs = append(attrs, slog.String("err", rec.err))
	}
	stages := make([]any, 0, numStages)
	for st, d := range rec.stages {
		if d > 0 {
			stages = append(stages, slog.Float64(stageNames[st], ms(d)))
		}
	}
	return append(append(attrs, rec.facts()...), slog.Float64("totalMs", ms(rec.total())), slog.Group("stageMs", stages...))
}

// view is the /debug/requests view: one top-level span per stage that took
// time, laid end to end from 0 to the total — the root span has no self time
// — and under "kernel" the phases ExecStats measured inside it.
func (rec *record) view() requestView {
	v := requestView{
		ID: rec.id, Start: rec.start, Status: rec.status, TotalMs: ms(rec.total()), Err: rec.err,
		Attrs: map[string]any{},
	}
	for _, f := range rec.facts() {
		v.Attrs[f.Key] = f.Value.Any()
	}
	at := func(name string, off, dur time.Duration) {
		v.Spans = append(v.Spans, span{Name: name, StartMs: ms(off), DurMs: ms(dur)})
	}
	var off time.Duration
	for st, d := range rec.stages {
		if d == 0 {
			continue
		}
		at(stageNames[st], off, d)
		if stage(st) == stageKernel {
			for _, sp := range rec.stats.PhaseSpans() {
				at("kernel."+sp.Phase.String(), off+sp.Offset, sp.Dur)
			}
		}
		off += d
	}
	return v
}
