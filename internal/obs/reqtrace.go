package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// RequestTrace is a request-scoped span timeline: one served request's
// end-to-end story (decode → admission wait → plan-cache lookup → kernel
// phases → respond) as named intervals on a single track, plus a small bag
// of attributes (matrix hashes, resolved algorithm, flop, collision
// factor). Its kernel spans are the request's spgemm.ExecStats, laid out in
// time, and it isolates exactly one request — where /debug/pprof/trace
// interleaves every goroutine of the process — so a slow outlier can be
// exported and read on its own.
//
// Ownership contract: a RequestTrace is built, complete, by the goroutine
// that finished the request and is immutable once published to a
// RequestRing; the ring's lock is the happens-before edge to concurrent
// /debug/requests readers. No internal locking is needed or provided.
type RequestTrace struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status"`
	// TotalMs is the end-to-end handler latency in milliseconds.
	TotalMs float64 `json:"totalMs"`
	// Attrs carries request metadata (operand hashes, algorithm, flop, ...).
	// encoding/json sorts map keys, so the exported shape is deterministic.
	Attrs map[string]any `json:"attrs,omitempty"`
	// Spans are the timeline intervals, in recording order, with offsets
	// relative to Start.
	Spans []ReqSpan `json:"spans"`
	// Err is the error message of a request that failed — or, beside a 200,
	// whose response could not be written out.
	Err string `json:"err,omitempty"`
}

// ReqSpan is one named interval of a RequestTrace.
type ReqSpan struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	DurMs   float64 `json:"durMs"`
}

// SpanAt appends the interval [offset, offset+dur) of the request under the
// given name. The server lays a request's stages out this way, end to end
// from 0, and the kernel's phases (ExecStats.PhaseSpans, measured
// back-to-back from the kernel start) inside the kernel stage.
func (t *RequestTrace) SpanAt(name string, offset, dur time.Duration) {
	t.Spans = append(t.Spans, ReqSpan{
		Name:    name,
		StartMs: float64(offset) / 1e6,
		DurMs:   float64(dur) / 1e6,
	})
}

// chromeEvent is one entry of the Chrome trace-event JSON array. ts is in
// microseconds, per the trace-event format specification.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"` // complete ("X") events only
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the request as a self-contained Chrome trace-event
// JSON document (complete "X" events on one named track), loadable in
// Perfetto or chrome://tracing. Attributes ride along as args of the root
// span.
func (t *RequestTrace) WriteChromeTrace(w io.Writer) error {
	var out chromeTrace
	out.DisplayTimeUnit = "ms"
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "thread_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": fmt.Sprintf("request %s", t.ID)},
	})
	root := chromeEvent{
		Name: "request", Cat: "request", Ph: "X",
		TS: 0, PID: 1, TID: 0,
		Args: map[string]any{"id": t.ID, "status": t.Status},
	}
	for k, v := range t.Attrs {
		root.Args[k] = v
	}
	root.Dur = t.TotalMs * 1e3
	out.TraceEvents = append(out.TraceEvents, root)
	for _, s := range t.Spans {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name, Cat: "request", Ph: "X",
			TS: s.StartMs * 1e3, Dur: s.DurMs * 1e3, PID: 1, TID: 0,
		})
	}
	return json.NewEncoder(w).Encode(&out)
}

// RequestRing is a bounded ring of recently completed RequestTraces — the
// in-memory store behind /debug/requests. Writers publish completed
// (immutable) traces; Snapshot returns them newest-first. The ring holds at
// most its capacity, so a long-running server's memory stays bounded no
// matter how much traffic flows through.
type RequestRing struct {
	mu   sync.Mutex
	buf  []*RequestTrace
	next int   // buf index the next Add writes
	n    int   // live entries (== len(buf) once wrapped)
	adds int64 // total Adds ever, for drop accounting
}

// NewRequestRing returns a ring holding the last capacity traces
// (minimum 1).
func NewRequestRing(capacity int) *RequestRing {
	if capacity < 1 {
		capacity = 1
	}
	return &RequestRing{buf: make([]*RequestTrace, capacity)}
}

// Add publishes a completed trace, displacing the oldest entry when full.
func (r *RequestRing) Add(t *RequestTrace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.adds++
	r.mu.Unlock()
}

// Snapshot returns the live traces newest-first. The returned slice is
// freshly allocated; the traces themselves are shared and immutable.
func (r *RequestRing) Snapshot() []*RequestTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*RequestTrace, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.next-1-i+2*len(r.buf))%len(r.buf)])
	}
	return out
}

// Get returns the live trace with the given request ID.
func (r *RequestRing) Get(id string) (*RequestTrace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.n; i++ {
		t := r.buf[(r.next-1-i+2*len(r.buf))%len(r.buf)]
		if t.ID == id {
			return t, true
		}
	}
	return nil, false
}

// Cap returns the ring's capacity.
func (r *RequestRing) Cap() int { return len(r.buf) }

// Len returns the number of live traces.
func (r *RequestRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many traces have been displaced by capacity so far —
// surfaced on /debug/requests so "covered everything" is never silently
// false.
func (r *RequestRing) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.adds - int64(r.n)
	if d < 0 {
		d = 0
	}
	return d
}
