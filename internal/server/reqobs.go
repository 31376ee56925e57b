package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ringSize is how many finished requests the server keeps for
// /debug/requests, /debug/requests/{id} and DrainRequests.
const ringSize = 256

// requestRing holds the records of the last finished requests, and issues
// request IDs. finish copies each record into the next slot under mu, which
// is the happens-before edge to the readers. Nothing writes a record after
// finish, so a copy may share its stats.Workers with the handler's; the
// views are rendered from the copies when they are read.
type requestRing struct {
	mu   sync.Mutex
	buf  []record
	next int   // slot the next add writes
	adds int64 // records ever added, for drop accounting

	idPrefix string
	idSeq    atomic.Uint64
}

func newRequestRing(capacity int) *requestRing {
	var pfx [4]byte
	_, _ = rand.Read(pfx[:]) // never fails (crypto/rand); the prefix only tells processes apart
	return &requestRing{buf: make([]record, capacity), idPrefix: hex.EncodeToString(pfx[:])}
}

// nextID issues a request ID, r-<process prefix>-<sequence>, in one
// allocation: the string.
func (r *requestRing) nextID() string {
	var b [32]byte
	id := append(append(append(b[:0], "r-"...), r.idPrefix...), '-')
	var d [20]byte
	seq := strconv.AppendUint(d[:0], r.idSeq.Add(1), 10)
	for i := len(seq); i < 6; i++ {
		id = append(id, '0')
	}
	return string(append(id, seq...))
}

// add copies a finished record into the ring, displacing the oldest.
func (r *requestRing) add(rec *record) {
	r.mu.Lock()
	r.buf[r.next] = *rec
	r.next = (r.next + 1) % len(r.buf)
	r.adds++
	r.mu.Unlock()
}

// lenLocked is the number of live records.
func (r *requestRing) lenLocked() int { return int(min(r.adds, int64(len(r.buf)))) }

// snapshot copies out up to n live records (all of them when n < 0), newest
// first, with the number displaced so far.
func (r *requestRing) snapshot(n int) (recs []record, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	live := r.lenLocked()
	if n < 0 || n > live {
		n = live
	}
	recs = make([]record, n)
	for i := range recs {
		recs[i] = r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
	}
	return recs, r.adds - int64(live)
}

// get returns a copy of the live record with the given request ID. The live
// records are buf[:lenLocked()], whether or not the ring has wrapped.
func (r *requestRing) get(id string) (record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.lenLocked() {
		if r.buf[i].id == id {
			return r.buf[i], true
		}
	}
	return record{}, false
}

// requestsDoc is the JSON document served at /debug/requests and written by
// DrainRequests.
type requestsDoc struct {
	Capacity int           `json:"capacity"`
	Dropped  int64         `json:"dropped"`
	Recent   []requestView `json:"recent"`
}

// requestView is one record as /debug/requests shows it: its outcome, the
// facts its log line carries as attrs (encoding/json sorts map keys, so the
// shape is deterministic), and its stages as spans (record.view).
type requestView struct {
	ID      string         `json:"id"`
	Start   time.Time      `json:"start"`
	Status  int            `json:"status"`
	TotalMs float64        `json:"totalMs"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Spans   []span         `json:"spans"`
	Err     string         `json:"err,omitempty"`
}

// span is one named interval of a request, in milliseconds from its start.
type span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	DurMs   float64 `json:"durMs"`
}

// doc renders up to n records (all when n < 0), newest first.
func (r *requestRing) doc(n int) requestsDoc {
	recs, dropped := r.snapshot(n)
	d := requestsDoc{Capacity: len(r.buf), Dropped: dropped, Recent: make([]requestView, len(recs))}
	for i := range recs {
		d.Recent[i] = recs[i].view()
	}
	return d
}

// handleRequests serves GET /debug/requests: the ring as JSON, newest first,
// optionally limited with ?n=.
func (r *requestRing) handleRequests(w http.ResponseWriter, req *http.Request) {
	n := -1
	if s := req.URL.Query().Get("n"); s != "" {
		var err error
		if n, err = strconv.Atoi(s); err != nil || n < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(r.doc(n))
}

// handleRequestTrace serves GET /debug/requests/{id}: one request as a
// self-contained Chrome trace-event document (drag into Perfetto).
func (r *requestRing) handleRequestTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	rec, ok := r.get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no retained trace for request %q", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = rec.view().writeChromeTrace(w)
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

// writeChromeTrace writes the request as complete ("X") events on one named
// track, in the JSON-object form of the trace-event format. The attrs ride
// along as args of the root span.
func (v requestView) writeChromeTrace(w io.Writer) error {
	root := chromeEvent{
		Name: "request", Cat: "request", Ph: "X", Dur: v.TotalMs * 1e3, PID: 1,
		Args: map[string]any{"id": v.ID, "status": v.Status},
	}
	for k, a := range v.Attrs {
		root.Args[k] = a
	}
	events := []chromeEvent{{Name: "thread_name", Ph: "M", PID: 1, Args: map[string]any{"name": "request " + v.ID}}, root}
	for _, s := range v.Spans {
		events = append(events, chromeEvent{Name: s.Name, Cat: "request", Ph: "X", TS: s.StartMs * 1e3, Dur: s.DurMs * 1e3, PID: 1})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}

// DrainRequests writes the ring as the /debug/requests JSON document — the
// shutdown path: a terminated server dumps the tail of its request history
// instead of losing it. It returns the number of records written.
func (s *Server) DrainRequests(w func(b []byte)) int {
	d := s.ring.doc(-1)
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return 0
	}
	w(append(out, '\n'))
	return len(d.Recent)
}
