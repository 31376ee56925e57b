package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/spgemm"
)

// TestConcurrentRequestTraces is the -race exercise of the request-trace
// path: N concurrent multiplies get distinct request IDs, every retained
// trace has an internally consistent span tree (spans inside the request
// window, kernel phase sub-spans inside the kernel span), and the per-trace
// phase accounting honors PhaseSum <= Total.
func TestConcurrentRequestTraces(t *testing.T) {
	s, ts := newTestServer(t, Config{Contexts: 3, RequestRing: 128})
	rng := rand.New(rand.NewSource(7))
	a := uploadBinary(t, ts.URL, matrix.Random(60, 60, 0.08, rng))
	b := uploadBinary(t, ts.URL, matrix.Random(60, 60, 0.08, rng))

	const N = 24
	ids := make([]string, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postMultiply(t, ts.URL, MultiplyRequest{A: a.Hash, B: b.Hash, Algorithm: "hash"})
			if code != http.StatusOK {
				t.Errorf("multiply %d: status %d: %s", i, code, body)
				return
			}
			ids[i] = decodeMultiply(t, body).RequestID
		}(i)
	}
	wg.Wait()

	seen := make(map[string]bool, N)
	for i, id := range ids {
		if id == "" {
			t.Fatalf("request %d: empty RequestID with tracing enabled", i)
		}
		if seen[id] {
			t.Fatalf("request ID %q issued twice", id)
		}
		seen[id] = true
	}

	traces := s.reqobs.recent.Snapshot()
	if len(traces) != N+2 { // the two uploads have records too
		t.Fatalf("ring holds %d traces, want %d", len(traces), N+2)
	}
	const slackMs = 2.0
	for _, tr := range traces {
		if tr.Attrs["route"] == "upload" {
			continue
		}
		if !seen[tr.ID] {
			t.Fatalf("ring trace %q not among issued IDs", tr.ID)
		}
		var kernel, kernelPhases float64
		for _, sp := range tr.Spans {
			if sp.StartMs < -slackMs || sp.StartMs+sp.DurMs > tr.TotalMs+slackMs {
				t.Errorf("trace %s: span %s [%v,%v] escapes request window %v",
					tr.ID, sp.Name, sp.StartMs, sp.StartMs+sp.DurMs, tr.TotalMs)
			}
			switch {
			case sp.Name == "kernel":
				kernel = sp.DurMs
			case len(sp.Name) > 7 && sp.Name[:7] == "kernel.":
				kernelPhases += sp.DurMs
			}
		}
		if kernel == 0 {
			t.Errorf("trace %s: no kernel span", tr.ID)
		}
		// Request-level restatement of ExecStats.PhaseSum() <= Total.
		if kernelPhases > kernel+slackMs {
			t.Errorf("trace %s: phase sub-spans sum %vms > kernel %vms", tr.ID, kernelPhases, kernel)
		}
		if tr.Status != http.StatusOK {
			t.Errorf("trace %s: status %d", tr.ID, tr.Status)
		}
	}
}

// TestRequestDebugEndpoints covers /debug/requests, /debug/requests/{id}
// (the per-request Chrome trace) and the disabled-path 404s.
func TestRequestDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestRing: 8, SlowThreshold: time.Nanosecond})
	rng := rand.New(rand.NewSource(8))
	a := uploadBinary(t, ts.URL, matrix.Random(30, 30, 0.1, rng))
	code, body := postMultiply(t, ts.URL, MultiplyRequest{A: a.Hash, B: a.Hash})
	if code != http.StatusOK {
		t.Fatalf("multiply: %d %s", code, body)
	}
	id := decodeMultiply(t, body).RequestID

	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dbg requestsDebugBody
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	// Newest first: the multiply, then the upload before it.
	if dbg.Capacity != 8 || len(dbg.Recent) != 2 || dbg.Recent[0].ID != id {
		t.Fatalf("debug body: capacity %d, %d recent", dbg.Capacity, len(dbg.Recent))
	}
	// Every request beats a 1ns threshold, so the slow ring caught them too.
	if len(dbg.Slow) != 2 || dbg.SlowThresholdMs == 0 {
		t.Fatalf("slow capture missing: %d slow entries, threshold %v", len(dbg.Slow), dbg.SlowThresholdMs)
	}

	// The per-request trace is a Chrome trace-event document.
	resp2, err := http.Get(ts.URL + "/debug/requests/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("per-request trace is not JSON: %v\n%s", err, raw)
	}
	if len(chrome.TraceEvents) < 3 { // thread_name meta + request root + >=1 span
		t.Fatalf("per-request trace has %d events", len(chrome.TraceEvents))
	}

	resp3, err := http.Get(ts.URL + "/debug/requests/r-nope-000001")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d", resp3.StatusCode)
	}

	// Tracing disabled: the endpoints answer 404 and responses carry no ID.
	_, tsOff := newTestServer(t, Config{})
	respOff, err := http.Get(tsOff.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	respOff.Body.Close()
	if respOff.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /debug/requests: status %d, want 404", respOff.StatusCode)
	}
}

// TestSlowRequestGoldenJSON pins the /debug/requests JSON shape for a slow
// request against testdata/slow_requests.golden — the contract dashboards
// and the shutdown drain parse.
func TestSlowRequestGoldenJSON(t *testing.T) {
	rt := &obs.RequestTrace{
		ID:      "r-cafe0123-000042",
		Start:   time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
		Status:  200,
		TotalMs: 206.5,
		Attrs: map[string]any{
			"a": "aaaa", "b": "bbbb", "alg": "hash", "algResolved": "hash",
			"planHit": false, "flop": int64(123456), "collisionFactor": 1.25,
		},
	}
	rt.SpanAt("queue.wait", 0, 4*time.Millisecond)
	rt.SpanAt("plan.lookup", 4*time.Millisecond, 10*time.Microsecond)
	rt.SpanAt("kernel", 5*time.Millisecond, 200*time.Millisecond)
	rt.SpanAt("kernel.symbolic", 5*time.Millisecond, 80*time.Millisecond)
	rt.SpanAt("kernel.numeric", 85*time.Millisecond, 120*time.Millisecond)

	body := requestsDebugBody{
		Capacity:        64,
		SlowThresholdMs: 100,
		Recent:          []*obs.RequestTrace{rt},
		Slow:            []*obs.RequestTrace{rt},
	}
	got, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "slow_requests.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("slow-request JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRequestObsDisabledZeroAllocs pins the zero-cost-when-disabled
// contract: with the request ring off and logging at the disabled default, a
// request's whole record — begin, a tick per stage, the outcome, finish with
// every metric it moves — allocates nothing.
func TestRequestObsDisabledZeroAllocs(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	w := httptest.NewRecorder()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		rec := s.begin("multiply")
		rec.tick(stageDecode)
		rec.admission = mQueueWaitAcquired
		rec.tick(stageCtxCheckout)
		rec.tick(stagePlanLookup)
		rec.planHit = true
		rec.stats.Algorithm = spgemm.AlgHash
		rec.tick(stageKernel)
		rec.wrote(nil)
		s.finish(ctx, w, &rec)
		if rec.id != "" || rec.total() <= 0 {
			t.Fatalf("disabled ring issued ID %q, total %v", rec.id, rec.total())
		}

		up := s.begin("upload")
		up.tick(stageDecode)
		up.tick(stageIntern)
		up.wrote(nil)
		s.finish(ctx, w, &up)
	})
	if allocs != 0 {
		t.Fatalf("a record with the ring and the log off allocates %v per request, want 0", allocs)
	}
}

// TestDrainRequests exercises the shutdown dump used by spgemm-serve.
func TestDrainRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestRing: 4})
	rng := rand.New(rand.NewSource(9))
	a := uploadBinary(t, ts.URL, matrix.Random(20, 20, 0.15, rng))
	for i := 0; i < 2; i++ {
		if code, body := postMultiply(t, ts.URL, MultiplyRequest{A: a.Hash, B: a.Hash}); code != http.StatusOK {
			t.Fatalf("multiply: %d %s", code, body)
		}
	}
	var out bytes.Buffer
	n := s.DrainRequests(func(b []byte) { out.Write(b) })
	if n != 3 { // one upload, two multiplies
		t.Fatalf("drained %d traces, want 3", n)
	}
	var dbg requestsDebugBody
	if err := json.Unmarshal(out.Bytes(), &dbg); err != nil {
		t.Fatalf("drain output is not the debug JSON: %v", err)
	}
	if len(dbg.Recent) != 3 {
		t.Fatalf("drain recorded %d recent traces, want 3", len(dbg.Recent))
	}

	// Disabled server drains nothing.
	sOff := New(Config{})
	defer sOff.Close()
	if n := sOff.DrainRequests(func([]byte) { t.Fatal("unexpected write") }); n != 0 {
		t.Fatalf("disabled drain returned %d", n)
	}
}

// TestMultiplyResponseQueueSeconds checks the server reports its admission
// wait: with one Context and a held checkout, a second request's
// queueSeconds reflects the wait.
func TestMultiplyResponseQueueSeconds(t *testing.T) {
	s, ts := newTestServer(t, Config{Contexts: 1, QueueDepth: 4, RequestRing: 8})
	rng := rand.New(rand.NewSource(10))
	a := uploadBinary(t, ts.URL, matrix.Random(20, 20, 0.15, rng))

	// Hold the only Context so the request must queue.
	c, err := s.pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const hold = 30 * time.Millisecond
	done := make(chan MultiplyResponse, 1)
	go func() {
		code, body := postMultiply(t, ts.URL, MultiplyRequest{A: a.Hash, B: a.Hash})
		if code != http.StatusOK {
			t.Errorf("queued multiply: %d %s", code, body)
		}
		done <- decodeMultiply(t, body)
	}()
	time.Sleep(hold)
	s.pool.Release(c)
	resp := <-done
	if resp.QueueSeconds < (hold / 2).Seconds() {
		t.Fatalf("queueSeconds = %v, want >= %v", resp.QueueSeconds, (hold / 2).Seconds())
	}
	// The trace recorded the wait as a queue.wait span.
	tr, ok := s.reqobs.recent.Get(resp.RequestID)
	if !ok {
		t.Fatalf("no trace for %s", resp.RequestID)
	}
	found := false
	for _, sp := range tr.Spans {
		if sp.Name == "queue.wait" && sp.DurMs >= float64(hold/2)/1e6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no queue.wait span covering the hold: %+v", tr.Spans)
	}
	if q, _ := tr.Attrs["queued"].(bool); !q {
		t.Fatalf("queued attr = %v, want true", tr.Attrs["queued"])
	}
}
