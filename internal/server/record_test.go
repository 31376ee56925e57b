package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/spgemm"
	"repro/internal/spgemm/difftest"
)

// ledger is every server_* series a request can move, read at one instant.
type ledger struct {
	requests, errors, queueWait map[string]int64
	multiplies, flop            int64
	requestSeconds              int64
	planLookups                 int64
	ringAdds                    int64
}

var (
	ledgerCodes    = []string{"400", "404", "413", "422", "429", "499", "500"}
	ledgerOutcomes = []string{"acquired", "rejected", "canceled"}
)

func readLedger(s *Server) ledger {
	l := ledger{requests: map[string]int64{}, errors: map[string]int64{}, queueWait: map[string]int64{}}
	for _, route := range []string{"multiply", "upload", "matrix_info"} {
		l.requests[route] = mRequests.With(route).Value()
	}
	for _, code := range ledgerCodes {
		l.errors[code] = mErrors.With(code).Value()
	}
	for _, o := range ledgerOutcomes {
		l.queueWait[o] = mQueueWait.With(o).Count()
	}
	l.multiplies, l.flop = mMultiplies.Value(), mMultiplyFlop.Value()
	for _, h := range requestSecondsByAlg {
		l.requestSeconds += h.Count()
	}
	l.planLookups = mPlanHits.Value() + mPlanMisses.Value()
	s.ring.mu.Lock()
	l.ringAdds = s.ring.adds
	s.ring.mu.Unlock()
	return l
}

// drive is the body of a /v1 handler with the record kept in hand: begin,
// fill, finish.
func drive(s *Server, route string, r *http.Request) (record, *httptest.ResponseRecorder) {
	w := httptest.NewRecorder()
	rec := s.begin(route)
	switch route {
	case "upload":
		s.upload(w, r, &rec)
	case "matrix_info":
		s.info(w, r, &rec)
	default:
		s.multiply(w, r, &rec)
	}
	s.finish(r.Context(), w, &rec)
	return rec, w
}

func infoRequest(hash string) *http.Request {
	r := httptest.NewRequest("GET", "/v1/matrices/"+hash, nil)
	r.SetPathValue("hash", hash)
	return r
}

// newest renders the record the ring took last.
func newest(s *Server) requestView {
	recs, _ := s.ring.snapshot(1)
	return recs[0].view()
}

func multiplyRequest(body string) *http.Request {
	return httptest.NewRequest("POST", "/v1/multiply", strings.NewReader(body))
}

// TestRecordAccounting drives every outcome of the three recorded handlers and
// holds each to the same ledger: the stages sum to the total exactly (they
// are differences of the same clock reads), the view's top-level spans tile
// [0, total] so the request span has no self time, every metric family moves
// once or not at all, one record reaches the ring, and the pool is whole.
func TestRecordAccounting(t *testing.T) {
	s, _ := newTestServer(t, Config{Contexts: 1, QueueDepth: 1, MaxUploadBytes: 4096})
	rng := rand.New(rand.NewSource(21))
	put := func(m *matrix.CSR) string {
		t.Helper()
		hash, _, err := s.store.Put(m)
		if err != nil {
			t.Fatal(err)
		}
		return hash
	}
	m := matrix.Random(12, 12, 0.25, rng)
	ha, hu := put(m), put(gen.Unsorted(matrix.Random(12, 12, 0.4, rng), rng))
	var wire bytes.Buffer
	if err := matrix.WriteCSRBinary(&wire, matrix.Random(9, 9, 0.3, rng)); err != nil {
		t.Fatal(err)
	}
	pair := fmt.Sprintf(`"a":%q,"b":%q`, ha, ha)

	// held stands in for the multiply in flight that the 429 and 499 rows
	// need: the test checks the one Context out itself.
	hold := func(queueDepth int) func() {
		s.pool = NewContextPool(1, queueDepth)
		held, err := s.pool.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return func() { s.pool.Release(held) }
	}

	cases := []struct {
		name   string
		route  string
		status int
		run    func() (record, *httptest.ResponseRecorder)
		stages []stage // those that must have taken time, in order
	}{
		{"200 meta", "multiply", 200, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "multiply", multiplyRequest(`{`+pair+`}`))
		}, []stage{stageDecode, stageCtxCheckout, stagePlanLookup, stagePlanBuild, stageKernel, stageRespond}},
		{"200 meta, plan hit", "multiply", 200, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "multiply", multiplyRequest(`{`+pair+`}`))
		}, []stage{stageDecode, stageCtxCheckout, stagePlanLookup, stageKernel, stageRespond}},
		{"200 store", "multiply", 200, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "multiply", multiplyRequest(`{`+pair+`,"return":"store"}`))
		}, []stage{stageDecode, stageCtxCheckout, stagePlanLookup, stageKernel, stageIntern, stageRespond}},
		{"200 matrix", "multiply", 200, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "multiply", multiplyRequest(`{`+pair+`,"return":"matrix"}`))
		}, []stage{stageDecode, stageCtxCheckout, stagePlanLookup, stageKernel, stageRespond}},
		{"200 min-plus", "multiply", 200, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "multiply", multiplyRequest(`{`+pair+`,"semiring":"min-plus"}`))
		}, []stage{stageDecode, stageCtxCheckout, stageKernel, stageRespond}},
		{"400 malformed", "multiply", 400, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "multiply", multiplyRequest(`{"a":`))
		}, []stage{stageDecode, stageRespond}},
		{"400 bad algorithm", "multiply", 400, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "multiply", multiplyRequest(`{`+pair+`,"algorithm":"quantum"}`))
		}, []stage{stageDecode, stageRespond}},
		{"404", "multiply", 404, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "multiply", multiplyRequest(fmt.Sprintf(`{"a":%q,"b":"beef"}`, ha)))
		}, []stage{stageDecode, stageRespond}},
		{"422 heap on unsorted", "multiply", 422, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "multiply", multiplyRequest(fmt.Sprintf(`{"a":%q,"b":%q,"algorithm":"heap"}`, ha, hu)))
		}, []stage{stageDecode, stageCtxCheckout, stagePlanLookup, stagePlanBuild, stageRespond}},
		{"429", "multiply", 429, func() (record, *httptest.ResponseRecorder) {
			defer hold(0)()
			return drive(s, "multiply", multiplyRequest(`{`+pair+`}`))
		}, []stage{stageDecode, stageQueueWait, stageRespond}},
		{"499", "multiply", 499, func() (record, *httptest.ResponseRecorder) {
			defer hold(1)()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				for s.pool.waiting.Load() == 0 {
					time.Sleep(time.Millisecond)
				}
				cancel()
			}()
			return drive(s, "multiply", multiplyRequest(`{`+pair+`}`).WithContext(ctx))
		}, []stage{stageDecode, stageQueueWait, stageRespond}},
		{"200 upload", "upload", 200, func() (record, *httptest.ResponseRecorder) {
			r := httptest.NewRequest("POST", "/v1/matrices", bytes.NewReader(wire.Bytes()))
			r.Header.Set("Content-Type", ContentTypeCSRBinary)
			return drive(s, "upload", r)
		}, []stage{stageDecode, stageIntern, stageRespond}},
		{"413 upload", "upload", 413, func() (record, *httptest.ResponseRecorder) {
			big := "%%MatrixMarket matrix coordinate real general\n10 10 800\n" + strings.Repeat("1 1 1.0\n", 800)
			return drive(s, "upload", httptest.NewRequest("POST", "/v1/matrices", strings.NewReader(big)))
		}, []stage{stageDecode, stageRespond}},
		{"400 upload", "upload", 400, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "upload", httptest.NewRequest("POST", "/v1/matrices", strings.NewReader("not a matrix")))
		}, []stage{stageDecode, stageRespond}},
		{"200 matrix_info", "matrix_info", 200, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "matrix_info", infoRequest(ha))
		}, []stage{stageDecode, stageRespond}},
		{"404 matrix_info", "matrix_info", 404, func() (record, *httptest.ResponseRecorder) {
			return drive(s, "matrix_info", infoRequest("beef"))
		}, []stage{stageDecode, stageRespond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := readLedger(s)
			rec, w := tc.run()
			after := readLedger(s)
			assertPoolWhole(t, s.pool)

			if rec.status != tc.status {
				t.Fatalf("status %d (%s), want %d", rec.status, rec.err, tc.status)
			}
			if tc.status != 499 && w.Code != tc.status {
				t.Errorf("answered %d, recorded %d", w.Code, tc.status)
			}
			if failed := tc.status != 200; failed != (rec.err != "") {
				t.Errorf("status %d with err %q", tc.status, rec.err)
			}

			// Σ stages == total, and exactly the expected stages ran.
			var sum time.Duration
			var ran []stage
			for st, d := range rec.stages {
				sum += d
				if d > 0 {
					ran = append(ran, stage(st))
				}
			}
			if sum != rec.total() || sum <= 0 {
				t.Errorf("stages sum to %v, total is %v", sum, rec.total())
			}
			if fmt.Sprint(ran) != fmt.Sprint(tc.stages) {
				t.Errorf("stages that took time: %v, want %v", ran, tc.stages)
			}
			if rec.stats.Total > rec.stages[stageKernel] {
				t.Errorf("ExecStats.Total %v exceeds the kernel stage %v", rec.stats.Total, rec.stages[stageKernel])
			}

			// One record in the ring, whose view's top-level spans tile the
			// request.
			if got := after.ringAdds - before.ringAdds; got != 1 {
				t.Fatalf("%d records reached the ring, want 1", got)
			}
			tr := newest(s)
			if tr.ID != rec.id || tr.Status != tc.status || tr.Err != rec.err || tr.Attrs["route"] != tc.route {
				t.Errorf("view %+v does not describe record %s", tr, rec.id)
			}
			const ns = 1e-6 // ms
			end, top := 0.0, 0
			var kernel span
			for _, sp := range tr.Spans {
				if strings.HasPrefix(sp.Name, "kernel.") {
					if sp.StartMs < kernel.StartMs-ns || sp.StartMs+sp.DurMs > kernel.StartMs+kernel.DurMs+ns {
						t.Errorf("%s [%v, +%v] escapes the kernel span [%v, +%v]", sp.Name, sp.StartMs, sp.DurMs, kernel.StartMs, kernel.DurMs)
					}
					continue
				}
				if sp.Name != stageNames[tc.stages[top]] {
					t.Errorf("top-level span %d is %q, want %q", top, sp.Name, stageNames[tc.stages[top]])
				}
				if math.Abs(sp.StartMs-end) > ns {
					t.Errorf("span %s starts at %v ms, the previous one ended at %v ms", sp.Name, sp.StartMs, end)
				}
				if sp.Name == "kernel" {
					kernel = sp
				}
				end, top = sp.StartMs+sp.DurMs, top+1
			}
			if top != len(tc.stages) || math.Abs(end-tr.TotalMs) > ns {
				t.Errorf("%d top-level spans end at %v ms; want %d ending at the total %v ms", top, end, len(tc.stages), tr.TotalMs)
			}

			// Each family moves once, under the right label, or not at all.
			for route, n := range after.requests {
				if want := b2i(route == tc.route); n-before.requests[route] != want {
					t.Errorf("server_requests_total{route=%q} moved by %d, want %d", route, n-before.requests[route], want)
				}
			}
			for code, n := range after.errors {
				if want := b2i(code == fmt.Sprint(tc.status)); n-before.errors[code] != want {
					t.Errorf("server_request_errors_total{code=%q} moved by %d, want %d", code, n-before.errors[code], want)
				}
			}
			outcome := map[int]string{429: "rejected", 499: "canceled"}[tc.status]
			if outcome == "" && rec.queueWait() > 0 {
				outcome = "acquired"
			}
			for o, n := range after.queueWait {
				if want := b2i(o == outcome); n-before.queueWait[o] != want {
					t.Errorf("server_queue_wait_seconds{outcome=%q} moved by %d, want %d", o, n-before.queueWait[o], want)
				}
			}
			ok := b2i(tc.route == "multiply" && tc.status == 200)
			if got := after.multiplies - before.multiplies; got != ok {
				t.Errorf("server_multiplies_total moved by %d, want %d", got, ok)
			}
			if got := after.requestSeconds - before.requestSeconds; got != ok {
				t.Errorf("server_request_seconds moved by %d observations, want %d", got, ok)
			}
			if got := after.flop - before.flop; got != ok*rec.flop() || (ok == 1 && got == 0) {
				t.Errorf("server_multiply_flop_total moved by %d, want %d", got, ok*rec.flop())
			}
			if got, want := after.planLookups-before.planLookups, b2i(rec.stages[stagePlanLookup] > 0); got != want {
				t.Errorf("plan cache hits+misses moved by %d, want %d", got, want)
			}
		})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// logCapture is a slog sink a test can read while handlers write.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *logCapture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

// requests returns the request lines logged so far (the one line finish
// writes per request), decoded.
func (c *logCapture) requests(t *testing.T) []map[string]any {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(c.buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if _, ok := rec["stageMs"]; ok {
			out = append(out, rec)
		}
	}
	return out
}

// brokenWriter is the ResponseWriter of a client that closed the connection
// once the headers were out: every body write fails.
type brokenWriter struct{ header http.Header }

func (w *brokenWriter) Header() http.Header       { return w.header }
func (w *brokenWriter) WriteHeader(int)           {}
func (w *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestEveryOutcomeLogsOnce is the regression test of the single exit: each
// request, whatever came of it, writes exactly one log line — a malformed
// body (400), a client that left the queue (499) and a metadata lookup wrote
// none before — and a matrix response that could not be written out is a warning carrying the
// write error, not a clean 200.
func TestEveryOutcomeLogsOnce(t *testing.T) {
	var logs logCapture
	obs.SetLogger(slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelInfo})))
	t.Cleanup(func() { obs.SetLogger(nil) })

	s, ts := newTestServer(t, Config{Contexts: 1, QueueDepth: 1})
	ha := uploadBinary(t, ts.URL, matrix.Random(10, 10, 0.3, rand.New(rand.NewSource(22)))).Hash
	pair := fmt.Sprintf(`{"a":%q,"b":%q}`, ha, ha)
	drain := func(resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post := func(body string) {
		drain(http.Post(ts.URL+"/v1/multiply", "application/json", strings.NewReader(body)))
	}
	get := func(url string) { drain(http.Get(url)) }

	steps := []struct {
		name   string
		do     func()
		level  string
		status float64
		err    string // substring of the logged err; "" = none
	}{
		{"upload", func() {}, "INFO", 200, ""}, // the upload above
		{"200", func() { post(pair) }, "INFO", 200, ""},
		{"400 malformed", func() { post(`{"a":`) }, "WARN", 400, "decode request"},
		{"404", func() { post(`{"a":"beef","b":"beef"}`) }, "WARN", 404, "unknown matrix"},
		{"200 matrix_info", func() { get(ts.URL + "/v1/matrices/" + ha) }, "INFO", 200, ""},
		{"404 matrix_info", func() { get(ts.URL + "/v1/matrices/beef") }, "WARN", 404, "unknown matrix"},
		{"499", func() {
			held, err := s.pool.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer s.pool.Release(held)
			ctx, cancel := context.WithCancel(context.Background())
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/multiply", strings.NewReader(pair))
			done := make(chan struct{})
			go func() {
				defer close(done)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}()
			waitFor(t, func() bool { return s.pool.waiting.Load() == 1 })
			cancel()
			<-done
			waitFor(t, func() bool { return s.pool.waiting.Load() == 0 })
		}, "WARN", 499, "client canceled"},
		{"200, write fails", func() {
			body := fmt.Sprintf(`{"a":%q,"b":%q,"return":"matrix"}`, ha, ha)
			s.Handler().ServeHTTP(&brokenWriter{header: http.Header{}}, multiplyRequest(body))
		}, "WARN", 200, "write response: broken pipe"},
	}
	for i, step := range steps {
		step.do()
		// The handler of a request whose client left finishes on its own time.
		waitFor(t, func() bool { return len(logs.requests(t)) > i })
		lines := logs.requests(t)
		if len(lines) != i+1 {
			t.Fatalf("%s: %d request lines logged so far, want %d", step.name, len(lines), i+1)
		}
		line := lines[i]
		errText, _ := line["err"].(string)
		if line["level"] != step.level || line["status"] != step.status ||
			(step.err == "") != (errText == "") || !strings.Contains(errText, step.err) {
			t.Errorf("%s: logged %v", step.name, line)
		}
	}
	// The failed write is in the ring too.
	if tr := newest(s); tr.Status != 200 || !strings.Contains(tr.Err, "broken pipe") {
		t.Errorf("view of the failed write: status %d, err %q", tr.Status, tr.Err)
	}
}

// TestSpecialValuesThroughServer closes the wire leg of the special-value
// cases: operands carrying ±Inf, −0 and stored zeros (and products carrying
// NaN) go up as SPGB and as Matrix Market text, and the product that comes
// back is bit-identical to the library's on the operands the test holds.
func TestSpecialValuesThroughServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	upload := func(m *matrix.CSR, contentType string) string {
		t.Helper()
		var buf bytes.Buffer
		write := matrix.WriteMatrixMarket
		if contentType == ContentTypeCSRBinary {
			write = matrix.WriteCSRBinary
		}
		if err := write(&buf, m); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/matrices", contentType, &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info MatrixInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("upload as %s: status %d, %v", contentType, resp.StatusCode, err)
		}
		if info.NNZ != m.NNZ() {
			t.Fatalf("upload as %s kept %d of %d entries", contentType, info.NNZ, m.NNZ())
		}
		return info.Hash
	}
	for _, c := range difftest.SpecialValueCases(rand.New(rand.NewSource(23))) {
		for _, contentType := range []string{ContentTypeCSRBinary, "text/plain"} {
			ha, hb := upload(c.A, contentType), upload(c.B, contentType)
			for alg := spgemm.AlgAuto; int(alg) < spgemm.NumAlgorithms; alg++ {
				want, err := spgemm.Multiply(c.A, c.B, &spgemm.Options{Algorithm: alg})
				if err != nil {
					if spgemm.RequiresSortedInput(alg) && !c.B.Sorted {
						continue
					}
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/%v", c.Name, contentType, alg)
				req, _ := json.Marshal(MultiplyRequest{A: ha, B: hb, Algorithm: alg.String(), Return: "matrix"})
				resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", bytes.NewReader(req))
				if err != nil {
					t.Fatal(err)
				}
				got, err := matrix.ReadCSRBinary(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d, %v", name, resp.StatusCode, err)
				}
				if fmt.Sprint(got.RowPtr) != fmt.Sprint(want.RowPtr) || fmt.Sprint(got.ColIdx) != fmt.Sprint(want.ColIdx) {
					t.Fatalf("%s: structure differs from the library product", name)
				}
				for i, w := range want.Val {
					if g := got.Val[i]; math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
						t.Fatalf("%s: Val[%d] = %v, the library has %v", name, i, g, w)
					}
				}
			}
		}
	}
}
