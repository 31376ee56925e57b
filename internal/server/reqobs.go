package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// requestObs is the ring side of request observability: ID generation, the
// recent-request ring behind /debug/requests, the slow-request capturer, and
// the optional on-spike CPU profile. A nil *requestObs (RequestRing == 0)
// issues no IDs and publishes nothing, so a record is never turned into a
// trace — the zero-allocation contract TestRequestObsDisabledZeroAllocs pins.
type requestObs struct {
	recent *obs.RequestRing
	slow   *obs.RequestRing
	// slowThreshold marks a request slow; 0 disables the capturer.
	slowThreshold time.Duration

	idPrefix string
	idSeq    atomic.Uint64

	// Slow-spike CPU profiling: at most one capture in flight; the last
	// completed profile is retained for /debug/requests/profile.
	profileDur  time.Duration
	profileBusy atomic.Bool
	profMu      sync.Mutex
	profData    []byte
	profReqID   string
}

// newRequestObs sizes the observer from the server config, or returns nil
// when request tracing is off (RequestRing == 0).
func newRequestObs(cfg Config) *requestObs {
	if cfg.RequestRing <= 0 {
		return nil
	}
	var pfx [4]byte
	_, _ = rand.Read(pfx[:])
	o := &requestObs{
		recent:        obs.NewRequestRing(cfg.RequestRing),
		slowThreshold: cfg.SlowThreshold,
		idPrefix:      hex.EncodeToString(pfx[:]),
		profileDur:    cfg.SlowProfileDur,
	}
	if cfg.SlowThreshold > 0 {
		n := cfg.SlowRing
		if n <= 0 {
			n = 32
		}
		o.slow = obs.NewRequestRing(n)
	}
	return o
}

// nextID issues a request ID, or "" while the ring is off.
func (o *requestObs) nextID() string {
	if o == nil {
		return ""
	}
	return fmt.Sprintf("r-%s-%06d", o.idPrefix, o.idSeq.Add(1))
}

// publish builds the finished record's trace, adds it to the recent ring and
// runs the slow-request capturer. The trace is immutable afterwards.
func (o *requestObs) publish(rec *record) {
	if o == nil {
		return
	}
	t := rec.trace()
	o.recent.Add(t)
	if o.slowThreshold > 0 && rec.total() >= o.slowThreshold {
		mSlowRequests.Inc()
		o.slow.Add(t)
		obs.Logger().Warn("slow request",
			"reqID", t.ID, "ms", t.TotalMs, "thresholdMs", ms(o.slowThreshold), "status", t.Status)
		o.maybeProfile(t.ID)
	}
}

// maybeProfile starts one short CPU profile when a slow request lands and no
// capture is already running — the spike evidence a postmortem wants: if the
// condition persists (GC thrash, a stuck neighbor, an algorithm regression),
// the profile window catches it in the act.
func (o *requestObs) maybeProfile(reqID string) {
	if o.profileDur <= 0 || !o.profileBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer o.profileBusy.Store(false)
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			// Another profiler (e.g. a live /debug/pprof/profile scrape)
			// owns the CPU profile; skip this spike.
			obs.Logger().Debug("slow-request profile skipped", "err", err)
			return
		}
		time.Sleep(o.profileDur)
		pprof.StopCPUProfile()
		o.profMu.Lock()
		o.profData = buf.Bytes()
		o.profReqID = reqID
		o.profMu.Unlock()
		obs.Logger().Info("slow-request CPU profile captured",
			"reqID", reqID, "bytes", buf.Len(), "windowMs", ms(o.profileDur))
	}()
}

// requestsDebugBody is the JSON document served at /debug/requests.
type requestsDebugBody struct {
	Capacity        int                 `json:"capacity"`
	Dropped         int64               `json:"dropped"`
	SlowThresholdMs float64             `json:"slowThresholdMs,omitempty"`
	SlowDropped     int64               `json:"slowDropped,omitempty"`
	Recent          []*obs.RequestTrace `json:"recent"`
	Slow            []*obs.RequestTrace `json:"slow,omitempty"`
}

// debugBody snapshots both rings, newest first.
func (o *requestObs) debugBody() requestsDebugBody {
	body := requestsDebugBody{
		Capacity: o.recent.Cap(),
		Dropped:  o.recent.Dropped(),
		Recent:   o.recent.Snapshot(),
	}
	if o.slow != nil {
		body.SlowThresholdMs = ms(o.slowThreshold)
		body.Slow = o.slow.Snapshot()
		body.SlowDropped = o.slow.Dropped()
	}
	return body
}

// handleRequests serves GET /debug/requests: the recent and slow rings as
// JSON, newest first, optionally limited with ?n=.
func (o *requestObs) handleRequests(w http.ResponseWriter, r *http.Request) {
	if o == nil {
		http.Error(w, "request tracing disabled (run with -request-ring > 0)", http.StatusNotFound)
		return
	}
	body := o.debugBody()
	if s := r.URL.Query().Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		if n < len(body.Recent) {
			body.Recent = body.Recent[:n]
		}
		if n < len(body.Slow) {
			body.Slow = body.Slow[:n]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

// handleRequestTrace serves GET /debug/requests/{id}: one request's full
// span tree as a self-contained Chrome trace JSON document (drag into
// Perfetto). Slow-ring entries outlive the recent ring, so a slow request's
// trace stays loadable after heavy traffic displaced it from recent.
func (o *requestObs) handleRequestTrace(w http.ResponseWriter, r *http.Request) {
	if o == nil {
		http.Error(w, "request tracing disabled (run with -request-ring > 0)", http.StatusNotFound)
		return
	}
	id := r.PathValue("id")
	t, ok := o.recent.Get(id)
	if !ok && o.slow != nil {
		t, ok = o.slow.Get(id)
	}
	if !ok {
		http.Error(w, fmt.Sprintf("no retained trace for request %q", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = t.WriteChromeTrace(w)
}

// handleSlowProfile serves GET /debug/requests/profile: the most recent
// slow-spike CPU profile in pprof format (go tool pprof reads it directly).
func (o *requestObs) handleSlowProfile(w http.ResponseWriter, r *http.Request) {
	if o == nil {
		http.Error(w, "request tracing disabled", http.StatusNotFound)
		return
	}
	o.profMu.Lock()
	data, reqID := o.profData, o.profReqID
	o.profMu.Unlock()
	if len(data) == 0 {
		http.Error(w, "no slow-request profile captured yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Spgemm-Slow-Request", reqID)
	_, _ = w.Write(data)
}

// DrainRequests writes every retained request trace (recent and slow rings)
// as the /debug/requests JSON document — the shutdown path: a terminated
// server dumps the tail of its request history instead of losing it.
func (s *Server) DrainRequests(w func(b []byte)) int {
	if s.reqobs == nil {
		return 0
	}
	body := s.reqobs.debugBody()
	out, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		return 0
	}
	w(append(out, '\n'))
	return len(body.Recent) + len(body.Slow)
}
