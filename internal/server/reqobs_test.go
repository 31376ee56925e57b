package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/spgemm"
)

// TestConcurrentRequestTraces is the -race exercise of the request ring
// behind the handlers: N concurrent multiplies get distinct request IDs, every
// retained record renders an internally consistent span tree (spans inside
// the request window, kernel phase sub-spans inside the kernel span), and the
// per-request phase accounting honors PhaseSum <= Total.
func TestConcurrentRequestTraces(t *testing.T) {
	s, ts := newTestServer(t, Config{Contexts: 3})
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
			t.Fatalf("request %d: empty RequestID", i)
		}
		if seen[id] {
			t.Fatalf("request ID %q issued twice", id)
		}
		seen[id] = true
	}

	recs, _ := s.ring.snapshot(-1)
	if len(recs) != N+2 { // the two uploads have records too
		t.Fatalf("ring holds %d records, want %d", len(recs), N+2)
	}
	const slackMs = 2.0
	for _, rec := range recs {
		tr := rec.view()
		if tr.Attrs["route"] == "upload" {
			continue
		}
		if !seen[tr.ID] {
			t.Fatalf("ring record %q not among issued IDs", tr.ID)
		}
		var kernel, kernelPhases float64
		for _, sp := range tr.Spans {
			if sp.StartMs < -slackMs || sp.StartMs+sp.DurMs > tr.TotalMs+slackMs {
				t.Errorf("request %s: span %s [%v,%v] escapes request window %v",
					tr.ID, sp.Name, sp.StartMs, sp.StartMs+sp.DurMs, tr.TotalMs)
			}
			switch {
			case sp.Name == "kernel":
				kernel = sp.DurMs
			case strings.HasPrefix(sp.Name, "kernel."):
				kernelPhases += sp.DurMs
			}
		}
		if kernel == 0 {
			t.Errorf("request %s: no kernel span", tr.ID)
		}
		// Request-level restatement of ExecStats.PhaseSum() <= Total.
		if kernelPhases > kernel+slackMs {
			t.Errorf("request %s: phase sub-spans sum %vms > kernel %vms", tr.ID, kernelPhases, kernel)
		}
		if tr.Status != http.StatusOK {
			t.Errorf("request %s: status %d", tr.ID, tr.Status)
		}
	}
}

// TestRequestDebugEndpoints covers /debug/requests and /debug/requests/{id}
// (the per-request Chrome trace) on a server built from the zero Config: the
// ring is always on.
func TestRequestDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(8))
	a := uploadBinary(t, ts.URL, matrix.Random(30, 30, 0.1, rng))
	code, body := postMultiply(t, ts.URL, MultiplyRequest{A: a.Hash, B: a.Hash})
	if code != http.StatusOK {
		t.Fatalf("multiply: %d %s", code, body)
	}
	id := decodeMultiply(t, body).RequestID
	if id == "" {
		t.Fatal("multiply answered without a request ID")
	}

	getDoc := func(query string) requestsDoc {
		t.Helper()
		resp, err := http.Get(ts.URL + "/debug/requests" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc requestsDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	// Newest first: the multiply, then the upload before it.
	doc := getDoc("")
	if doc.Capacity != ringSize || len(doc.Recent) != 2 || doc.Recent[0].ID != id || doc.Recent[1].Attrs["route"] != "upload" {
		t.Fatalf("debug doc: capacity %d, %d recent", doc.Capacity, len(doc.Recent))
	}
	if doc := getDoc("?n=1"); len(doc.Recent) != 1 || doc.Recent[0].ID != id {
		t.Fatalf("?n=1 returned %d records", len(doc.Recent))
	}

	// The per-request trace is a Chrome trace-event document.
	resp, err := http.Get(ts.URL + "/debug/requests/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("per-request trace is not JSON: %v\n%s", err, raw)
	}
	if len(chrome.TraceEvents) < 3 { // thread_name meta + request root + >=1 span
		t.Fatalf("per-request trace has %d events", len(chrome.TraceEvents))
	}

	// An unknown ID is a 404, and so is the profile endpoint that used to sit
	// here: a CPU profile is /debug/pprof/profile.
	for _, path := range []string{"/debug/requests/r-nope-000001", "/debug/requests/profile"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRequestsGoldenJSON pins the /debug/requests JSON shape, rendered from a
// hand-built record, against testdata/requests.golden — the contract
// dashboards and the shutdown drain parse.
func TestRequestsGoldenJSON(t *testing.T) {
	start := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	rec := record{
		route: "multiply", id: "r-cafe0123-000042", start: start, status: http.StatusOK,
		req: MultiplyRequest{A: "aaaa", B: "bbbb"}, alg: spgemm.AlgHash, workers: 1,
		admission: mQueueWaitAcquired, queued: true, planMiss: true, nnz: 4321,
	}
	rec.stages[stageQueueWait] = 4 * time.Millisecond
	rec.stages[stagePlanLookup] = 10 * time.Microsecond
	rec.stages[stagePlanBuild] = 990 * time.Microsecond
	rec.stages[stageKernel] = 200 * time.Millisecond
	rec.stages[stageRespond] = 1500 * time.Microsecond
	rec.last = start.Add(206500 * time.Microsecond)
	rec.stats.Algorithm = spgemm.AlgHash
	rec.stats.Phases[spgemm.PhaseSymbolic] = 80 * time.Millisecond
	rec.stats.Phases[spgemm.PhaseNumeric] = 120 * time.Millisecond
	rec.stats.Workers = []spgemm.WorkerStats{{Flop: 123456, HashLookups: 4, HashProbes: 1}}

	r := newRequestRing(64)
	r.add(&rec)
	got, err := json.MarshalIndent(r.doc(-1), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "requests.golden")
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
		t.Errorf("/debug/requests JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// An entry has the fields and attrs the trace documents of earlier
	// servers had, so their drain files and this one's parse alike.
	var doc struct{ Recent []map[string]any }
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc.Recent[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if fmt.Sprint(keys) != "[attrs id spans start status totalMs]" {
		t.Errorf("entry fields %v", keys)
	}
	attrs := doc.Recent[0]["attrs"].(map[string]any)
	for k, v := range map[string]any{"a": "aaaa", "b": "bbbb", "alg": "hash", "algResolved": "hash",
		"planHit": false, "flop": 123456.0, "collisionFactor": 1.25} {
		if attrs[k] != v {
			t.Errorf("attrs[%q] = %v, want %v", k, attrs[k], v)
		}
	}
}

// aMultiplyRecord fills a multiply's record the way the handler does, without
// a kernel behind it.
func aMultiplyRecord(s *Server) record {
	rec := s.begin("multiply")
	rec.tick(stageDecode)
	rec.admission = mQueueWaitAcquired
	rec.tick(stageCtxCheckout)
	rec.tick(stagePlanLookup)
	rec.planHit = true
	rec.stats.Algorithm = spgemm.AlgHash
	rec.tick(stageKernel)
	rec.wrote(nil)
	return rec
}

func anUploadRecord(s *Server) record {
	rec := s.begin("upload")
	rec.tick(stageDecode)
	rec.tick(stageIntern)
	rec.wrote(nil)
	return rec
}

// TestFinishZeroAllocs pins finish with the log at its disabled default: it
// answers nothing on a 200, moves every metric the record moves and copies
// the record into the ring, and allocates nothing doing it.
func TestFinishZeroAllocs(t *testing.T) {
	s := New(Config{})
	w := httptest.NewRecorder()
	ctx := context.Background()
	mul, up := aMultiplyRecord(s), anUploadRecord(s)
	allocs := testing.AllocsPerRun(1000, func() {
		rec := mul
		s.finish(ctx, w, &rec)
		rec = up
		s.finish(ctx, w, &rec)
	})
	if allocs != 0 {
		t.Fatalf("finish allocates %v per two requests, want 0", allocs)
	}
	if recs, _ := s.ring.snapshot(-1); len(recs) != ringSize || recs[0].id != up.id || recs[1].id != mul.id {
		t.Fatalf("ring holds %d records, newest %q", len(recs), recs[0].id)
	}
}

// TestRecordAllocatesOnlyItsID pins a whole record with the log off — begin,
// a tick per stage, the outcome, finish — to one allocation, its request ID.
func TestRecordAllocatesOnlyItsID(t *testing.T) {
	s := New(Config{})
	w := httptest.NewRecorder()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		rec := aMultiplyRecord(s)
		s.finish(ctx, w, &rec)
		if rec.id == "" || rec.total() <= 0 {
			t.Fatalf("record ID %q, total %v", rec.id, rec.total())
		}
		up := anUploadRecord(s)
		s.finish(ctx, w, &up)
	})
	if allocs != 2 {
		t.Fatalf("a record allocates %v per two requests, want 2 (one ID each)", allocs/2)
	}
}

func TestRequestIDFormat(t *testing.T) {
	r := newRequestRing(1)
	r.idPrefix = "cafe0123"
	if id := r.nextID(); id != "r-cafe0123-000001" {
		t.Fatalf("first ID %q", id)
	}
	r.idSeq.Store(1234566)
	if id := r.nextID(); id != "r-cafe0123-1234567" {
		t.Fatalf("seven-digit ID %q", id)
	}
}

// TestDrainRequests exercises the shutdown dump used by spgemm-serve.
func TestDrainRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(9))
	a := uploadBinary(t, ts.URL, matrix.Random(20, 20, 0.15, rng))
	for i := 0; i < 2; i++ {
		if code, body := postMultiply(t, ts.URL, MultiplyRequest{A: a.Hash, B: a.Hash}); code != http.StatusOK {
			t.Fatalf("multiply: %d %s", code, body)
		}
	}
	var out bytes.Buffer
	n, err := s.DrainRequests(&out)
	if err != nil || n != 3 { // one upload, two multiplies
		t.Fatalf("drained %d records (%v), want 3", n, err)
	}
	var doc requestsDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("drain output is not the debug JSON: %v", err)
	}
	if len(doc.Recent) != 3 {
		t.Fatalf("drain wrote %d recent records, want 3", len(doc.Recent))
	}

	// A write that fails is the drain's error, with no record counted.
	if n, err := s.DrainRequests(&brokenWriter{}); err == nil || n != 0 {
		t.Fatalf("drain into a failing writer returned %d, %v; want 0 and its error", n, err)
	}

	// A server that answered nothing drains an empty document.
	idle := New(Config{})
	out.Reset()
	if n, err := idle.DrainRequests(&out); err != nil || n != 0 || !strings.Contains(out.String(), `"recent": []`) {
		t.Fatalf("idle drain returned %d (%v): %s", n, err, out.String())
	}
}

// TestMultiplyResponseQueueSeconds checks the server reports its admission
// wait: with one Context and a held checkout, a second request's
// queueSeconds reflects the wait.
func TestMultiplyResponseQueueSeconds(t *testing.T) {
	s, ts := newTestServer(t, Config{Contexts: 1, QueueDepth: 4})
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
	// The record's view has the wait as a queue.wait span.
	rec, ok := s.ring.get(resp.RequestID)
	if !ok {
		t.Fatalf("no record for %s", resp.RequestID)
	}
	tr := rec.view()
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

// ringRecord is the i-th record of writer g, identifiable from its fields.
func ringRecord(g, i int) record {
	return record{route: "g" + strconv.Itoa(g), id: fmt.Sprintf("g%d-%d", g, i), nnz: int64(i), status: http.StatusOK}
}

func TestRequestRingBoundedNewestFirst(t *testing.T) {
	r := newRequestRing(3)
	for i := 0; i < 5; i++ {
		rec := ringRecord(0, i)
		r.add(&rec)
	}
	recs, dropped := r.snapshot(-1)
	if len(recs) != 3 {
		t.Fatalf("ring holds %d records, want 3", len(recs))
	}
	if dropped != 2 {
		t.Fatalf("dropped %d, want 2", dropped)
	}
	for i, id := range []string{"g0-4", "g0-3", "g0-2"} {
		if recs[i].id != id {
			t.Fatalf("snapshot[%d] = %s, want %s", i, recs[i].id, id)
		}
	}
	if recs, _ := r.snapshot(2); len(recs) != 2 || recs[0].id != "g0-4" {
		t.Fatalf("snapshot(2) = %d records", len(recs))
	}
	if _, ok := r.get("g0-3"); !ok {
		t.Fatal("g0-3 missing")
	}
	if _, ok := r.get("g0-0"); ok {
		t.Fatal("g0-0 should have been displaced")
	}
}

// TestRequestRingConcurrent is the -race proof of the publication contract:
// many writers add finished records while readers snapshot and get, and every
// copy a reader sees is one whole record.
func TestRequestRingConcurrent(t *testing.T) {
	r := newRequestRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := ringRecord(g, i)
				r.add(&rec)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		recs, _ := r.snapshot(-1)
		for _, rec := range recs {
			if rec.id != fmt.Sprintf("%s-%d", rec.route, rec.nnz) {
				t.Errorf("torn record: id %s, route %s, nnz %d", rec.id, rec.route, rec.nnz)
			}
		}
		r.get("g0-0")
	}
	wg.Wait()
	if recs, dropped := r.snapshot(-1); len(recs) != 16 || dropped != 8*200-16 {
		t.Fatalf("ring holds %d records, %d dropped", len(recs), dropped)
	}
}

// TestRecordChromeTrace checks the per-request Chrome export: a thread-name
// event, a root "request" span carrying the ID and the attrs, and every stage
// and kernel phase as a complete event, in microseconds, inside the root.
func TestRecordChromeTrace(t *testing.T) {
	start := time.Now()
	rec := record{route: "multiply", id: "r-1", start: start, last: start.Add(10 * time.Millisecond), status: http.StatusOK,
		alg: spgemm.AlgHash, workers: 1, req: MultiplyRequest{A: "aaaa", B: "bbbb"}}
	rec.stages[stageQueueWait] = 2 * time.Millisecond
	rec.stages[stageCtxCheckout] = time.Millisecond
	rec.stages[stageKernel] = 7 * time.Millisecond
	rec.stats.Phases[spgemm.PhaseNumeric] = 5 * time.Millisecond
	v := rec.view()

	var buf bytes.Buffer
	if err := v.writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	// thread_name meta + root request span + 3 stages + 1 kernel phase.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("trace has %d events, want 6", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for i, e := range doc.TraceEvents {
		byName[e.Name] = i
	}
	root := doc.TraceEvents[byName["request"]]
	if root.Ph != "X" || root.Args["id"] != "r-1" || root.Args["alg"] != "hash" || root.Dur != 10000 {
		t.Fatalf("bad root span: %+v", root)
	}
	kn := doc.TraceEvents[byName["kernel.numeric"]]
	if kn.TS != 3000 || kn.Dur != 5000 { // microseconds
		t.Fatalf("kernel.numeric ts/dur = %v/%v, want 3000/5000", kn.TS, kn.Dur)
	}
	// Every span nests inside the root window — what makes the export read
	// as one request in Perfetto.
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Name == "request" {
			continue
		}
		if e.TS < 0 || e.TS+e.Dur > root.Dur+1 {
			t.Errorf("span %s [%v,%v] escapes root window %v", e.Name, e.TS, e.TS+e.Dur, root.Dur)
		}
	}
}
