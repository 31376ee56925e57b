package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/spgemm"
	"repro/internal/spgemm/difftest"
	"repro/internal/testalloc"
)

// newTestServer starts a server whose ContextPool must be whole again once
// the test is over: every handler path that checks a Context out hands it
// back, whatever the request came to. Cleanups run last-in first-out, so
// ts.Close has waited out every handler before the pool is counted.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { assertPoolWhole(t, s.pool) })
	t.Cleanup(ts.Close)
	return s, ts
}

func assertPoolWhole(t *testing.T, p *ContextPool) {
	t.Helper()
	if got, waiting := len(p.contexts), p.waiting.Load(); got != p.size || waiting != 0 {
		t.Errorf("ContextPool not whole: %d of %d Contexts home, %d waiting (a handler path kept its checkout)", got, p.size, waiting)
	}
}

func uploadBinary(t *testing.T, base string, m *matrix.CSR) MatrixInfo {
	t.Helper()
	var buf bytes.Buffer
	if err := matrix.WriteCSRBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/matrices", ContentTypeCSRBinary, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var info MatrixInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func postMultiply(t *testing.T, base string, req MultiplyRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func decodeMultiply(t *testing.T, body []byte) MultiplyResponse {
	t.Helper()
	var mr MultiplyResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("decode multiply response %q: %v", body, err)
	}
	return mr
}

func TestUploadInternAndInfo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(1))
	m := matrix.Random(40, 50, 0.1, rng)

	info := uploadBinary(t, ts.URL, m)
	if info.Rows != 40 || info.Cols != 50 || info.NNZ != m.NNZ() || info.Interned {
		t.Fatalf("bad upload info: %+v", info)
	}

	// Same matrix as Matrix Market text interns to the same hash.
	var mm bytes.Buffer
	if err := matrix.WriteMatrixMarket(&mm, m); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/matrices", "text/plain", &mm)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var again MatrixInfo
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	if again.Hash != info.Hash || !again.Interned {
		t.Fatalf("re-upload did not intern: %+v vs %+v", again, info)
	}

	// Metadata lookup.
	resp2, err := http.Get(ts.URL + "/v1/matrices/" + info.Hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("info: status %d", resp2.StatusCode)
	}

	// Unknown hash is a 404.
	resp3, err := http.Get(ts.URL + "/v1/matrices/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown matrix: status %d, want 404", resp3.StatusCode)
	}
}

func TestMultiplyAndPlanCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(2))
	a := matrix.Random(60, 50, 0.1, rng)
	b := matrix.Random(50, 70, 0.1, rng)
	ha := uploadBinary(t, ts.URL, a).Hash
	hb := uploadBinary(t, ts.URL, b).Hash

	want, err := spgemm.Multiply(a, b, &spgemm.Options{Algorithm: spgemm.AlgHash})
	if err != nil {
		t.Fatal(err)
	}

	code, body := postMultiply(t, ts.URL, MultiplyRequest{A: ha, B: hb, Algorithm: "hash"})
	if code != http.StatusOK {
		t.Fatalf("multiply: status %d: %s", code, body)
	}
	first := decodeMultiply(t, body)
	if first.PlanCacheHit {
		t.Fatal("first multiply claims a plan cache hit")
	}
	if first.NNZ != want.NNZ() || first.Rows != 60 || first.Cols != 70 {
		t.Fatalf("wrong product shape: %+v", first)
	}

	code, body = postMultiply(t, ts.URL, MultiplyRequest{A: ha, B: hb, Algorithm: "hash"})
	if code != http.StatusOK {
		t.Fatalf("repeat multiply: status %d: %s", code, body)
	}
	second := decodeMultiply(t, body)
	if !second.PlanCacheHit {
		t.Fatal("repeat multiply missed the plan cache")
	}
	if second.NNZ != first.NNZ {
		t.Fatalf("repeat product changed: %+v vs %+v", second, first)
	}

	// The hit is visible on /metrics — the counter the load generator and
	// CI smoke assert on.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(metrics), "server_plan_cache_hits_total") {
		t.Fatal("/metrics missing server_plan_cache_hits_total")
	}
}

func TestMultiplyReturnMatrixRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(3))
	a := matrix.Random(30, 25, 0.15, rng)
	b := matrix.Random(25, 35, 0.15, rng)
	ha := uploadBinary(t, ts.URL, a).Hash
	hb := uploadBinary(t, ts.URL, b).Hash

	req, _ := json.Marshal(MultiplyRequest{A: ha, B: hb, Algorithm: "hash", Return: "matrix"})
	resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeCSRBinary {
		t.Fatalf("content type %q", ct)
	}
	got, err := matrix.ReadCSRBinary(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spgemm.Multiply(a, b, &spgemm.Options{Algorithm: spgemm.AlgHash})
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != want.NNZ() || got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("streamed product differs: %v vs %v", got, want)
	}
	for i := range want.ColIdx {
		if got.ColIdx[i] != want.ColIdx[i] || got.Val[i] != want.Val[i] {
			t.Fatalf("streamed product differs at entry %d", i)
		}
	}
}

func TestMultiplyReturnStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(4))
	a := matrix.Random(20, 20, 0.2, rng)
	ha := uploadBinary(t, ts.URL, a).Hash

	code, body := postMultiply(t, ts.URL, MultiplyRequest{A: ha, B: ha, Return: "store"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	mr := decodeMultiply(t, body)
	if mr.Hash == "" {
		t.Fatal("return=store produced no hash")
	}
	// The product is immediately addressable, e.g. for A·A·A.
	code, body = postMultiply(t, ts.URL, MultiplyRequest{A: mr.Hash, B: ha})
	if code != http.StatusOK {
		t.Fatalf("chained multiply: status %d: %s", code, body)
	}
}

func TestMultiplySemiringOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(5))
	a := matrix.Random(25, 25, 0.2, rng)
	ha := uploadBinary(t, ts.URL, a).Hash

	code, body := postMultiply(t, ts.URL, MultiplyRequest{A: ha, B: ha, Semiring: "min-plus"})
	if code != http.StatusOK {
		t.Fatalf("min-plus: status %d: %s", code, body)
	}
	mr := decodeMultiply(t, body)
	if mr.Semiring != "min-plus" || mr.PlanCacheHit {
		t.Fatalf("bad min-plus response: %+v", mr)
	}
}

func TestMultiplyErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(6))
	a := matrix.Random(10, 10, 0.3, rng)
	tall := matrix.Random(7, 3, 0.5, rng)
	ha := uploadBinary(t, ts.URL, a).Hash
	htall := uploadBinary(t, ts.URL, tall).Hash

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown A hash", fmt.Sprintf(`{"a":"beef","b":%q}`, ha), http.StatusNotFound},
		{"unknown B hash", fmt.Sprintf(`{"a":%q,"b":"beef"}`, ha), http.StatusNotFound},
		{"dimension mismatch", fmt.Sprintf(`{"a":%q,"b":%q}`, ha, htall), http.StatusBadRequest},
		{"malformed JSON", `{"a":`, http.StatusBadRequest},
		{"not JSON", `hello`, http.StatusBadRequest},
		{"unknown field", fmt.Sprintf(`{"a":%q,"b":%q,"bogus":1}`, ha, ha), http.StatusBadRequest},
		{"trailing garbage", fmt.Sprintf(`{"a":%q,"b":%q} extra`, ha, ha), http.StatusBadRequest},
		{"missing hashes", `{}`, http.StatusBadRequest},
		{"bad algorithm", fmt.Sprintf(`{"a":%q,"b":%q,"algorithm":"quantum"}`, ha, ha), http.StatusBadRequest},
		{"retired algorithm", fmt.Sprintf(`{"a":%q,"b":%q,"algorithm":"tiled"}`, ha, ha), http.StatusBadRequest},
		{"retired algorithm", fmt.Sprintf(`{"a":%q,"b":%q,"algorithm":"sharded"}`, ha, ha), http.StatusBadRequest},
		{"retired algorithm", fmt.Sprintf(`{"a":%q,"b":%q,"algorithm":"hashvec"}`, ha, ha), http.StatusBadRequest},
		{"bad semiring", fmt.Sprintf(`{"a":%q,"b":%q,"semiring":"xor"}`, ha, ha), http.StatusBadRequest},
		{"bad return", fmt.Sprintf(`{"a":%q,"b":%q,"return":"email"}`, ha, ha), http.StatusBadRequest},
		{"negative workers", fmt.Sprintf(`{"a":%q,"b":%q,"workers":-1}`, ha, ha), http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := post(tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, code, tc.want, body)
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("%s: error body missing error field: %s", tc.name, body)
		}
		if strings.HasSuffix(tc.name, " algorithm") && !strings.Contains(body, "(want "+algorithmNames()+")") {
			t.Errorf("%s: error does not list the valid names %s: %s", tc.name, algorithmNames(), body)
		}
	}
}

func TestUploadErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxUploadBytes: 256, MaxDim: 64, MaxNNZ: 128})

	// Garbage in both formats.
	for _, ct := range []string{"text/plain", ContentTypeCSRBinary} {
		resp, err := http.Post(ts.URL+"/v1/matrices", ct, strings.NewReader("not a matrix"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s garbage: status %d, want 400", ct, resp.StatusCode)
		}
	}

	// Over the body-size limit: 413.
	big := "%%MatrixMarket matrix coordinate real general\n10 10 40\n" + strings.Repeat("1 1 1.0\n", 40)
	resp, err := http.Post(ts.URL+"/v1/matrices", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: status %d, want 413", resp.StatusCode)
	}

	// Within the byte limit but over the shape limit: 400 without the
	// server committing shape-proportional memory.
	bomb := "%%MatrixMarket matrix coordinate real general\n1000000 1000000 0\n"
	resp, err = http.Post(ts.URL+"/v1/matrices", "text/plain", strings.NewReader(bomb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("shape bomb: status %d, want 400", resp.StatusCode)
	}
}

// TestAdmissionControl429 pins the backpressure contract: with every
// Context checked out and the queue full, a multiply is rejected
// immediately with 429 rather than queued indefinitely.
func TestAdmissionControl429(t *testing.T) {
	s, ts := newTestServer(t, Config{Contexts: 1, QueueDepth: 1})
	rng := rand.New(rand.NewSource(7))
	a := matrix.Random(10, 10, 0.3, rng)
	ha := uploadBinary(t, ts.URL, a).Hash

	// Drain the pool: the one Context is now "in flight".
	ctx, err := s.pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Fill the one queue slot with a request that will block.
	queued := make(chan struct {
		code int
		body []byte
	}, 1)
	go func() {
		code, body := postMultiply(t, ts.URL, MultiplyRequest{A: ha, B: ha})
		queued <- struct {
			code int
			body []byte
		}{code, body}
	}()
	waitFor(t, func() bool { return s.pool.waiting.Load() == 1 })

	// Queue full: the next request is shed with 429 and a Retry-After.
	req, _ := json.Marshal(MultiplyRequest{A: ha, B: ha})
	resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body429, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated multiply: status %d, want 429: %s", resp.StatusCode, body429)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	// Releasing the Context lets the queued request complete normally.
	s.pool.Release(ctx)
	select {
	case r := <-queued:
		if r.code != http.StatusOK {
			t.Fatalf("queued request: status %d: %s", r.code, r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never completed")
	}
}

// TestMultiplyClientCanceledWhileQueued covers AcquireTraced's other failure
// arm: the client gives up while its request waits for a Context. Nothing is
// answered; the wait is observed as canceled, the request counted as a 499,
// and the queue slot given back.
func TestMultiplyClientCanceledWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Contexts: 1, QueueDepth: 1})
	a := matrix.Random(10, 10, 0.3, rand.New(rand.NewSource(12)))
	ha := uploadBinary(t, ts.URL, a).Hash

	held, err := s.pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	errs499, canceled := mErrors.With("499").Value(), mQueueWaitCanceled.Count()

	body, _ := json.Marshal(MultiplyRequest{A: ha, B: ha})
	cctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(cctx, http.MethodPost, ts.URL+"/v1/multiply", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, func() bool { return s.pool.waiting.Load() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v, want context.Canceled", err)
	}
	// The handler sees the disconnect asynchronously.
	waitFor(t, func() bool { return s.pool.waiting.Load() == 0 })
	waitFor(t, func() bool { return mErrors.With("499").Value() == errs499+1 })
	if got := mQueueWaitCanceled.Count(); got != canceled+1 {
		t.Errorf("server_queue_wait_seconds{outcome=\"canceled\"} count moved by %d, want 1", got-canceled)
	}
	s.pool.Release(held)
	assertPoolWhole(t, s.pool)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentMultiplies is the -race proof of the checkout-pool
// ownership discipline: many goroutines hammer a small Context pool with
// mixed cache-hitting products and every response must be correct.
func TestConcurrentMultiplies(t *testing.T) {
	_, ts := newTestServer(t, Config{Contexts: 3, QueueDepth: 256, Workers: 2})
	rng := rand.New(rand.NewSource(8))
	a := matrix.Random(80, 60, 0.08, rng)
	b := matrix.Random(60, 90, 0.08, rng)
	sq := matrix.Random(60, 60, 0.08, rng)
	ha := uploadBinary(t, ts.URL, a).Hash
	hb := uploadBinary(t, ts.URL, b).Hash
	hsq := uploadBinary(t, ts.URL, sq).Hash

	wantAB, err := spgemm.Multiply(a, b, &spgemm.Options{Algorithm: spgemm.AlgHash})
	if err != nil {
		t.Fatal(err)
	}
	wantSq, err := spgemm.Multiply(sq, sq, &spgemm.Options{Algorithm: spgemm.AlgHeap})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var req MultiplyRequest
				var wantNNZ int64
				if (g+i)%2 == 0 {
					req = MultiplyRequest{A: ha, B: hb, Algorithm: "hash"}
					wantNNZ = wantAB.NNZ()
				} else {
					req = MultiplyRequest{A: hsq, B: hsq, Algorithm: "heap"}
					wantNNZ = wantSq.NNZ()
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
					return
				}
				var mr MultiplyResponse
				if err := json.Unmarshal(raw, &mr); err != nil {
					errs <- err
					return
				}
				if mr.NNZ != wantNNZ {
					errs <- fmt.Errorf("wrong product nnz %d, want %d", mr.NNZ, wantNNZ)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStoreEvictionDropsPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Budget fits roughly two of the three matrices.
	m1 := matrix.Random(40, 40, 0.2, rng)
	m2 := matrix.Random(40, 40, 0.2, rng)
	m3 := matrix.Random(40, 40, 0.2, rng)
	budget := matrix.WireSize(m1) + matrix.WireSize(m2) + matrix.WireSize(m3)/2

	s, ts := newTestServer(t, Config{MaxStoreBytes: budget})
	h1 := uploadBinary(t, ts.URL, m1).Hash
	h2 := uploadBinary(t, ts.URL, m2).Hash

	// Build a plan for (m1, m1) so there is something to invalidate.
	code, body := postMultiply(t, ts.URL, MultiplyRequest{A: h1, B: h1})
	if code != http.StatusOK {
		t.Fatalf("multiply: %d %s", code, body)
	}
	if s.plans.Len() != 1 {
		t.Fatalf("plan cache has %d entries, want 1", s.plans.Len())
	}

	// Touch m2 so m1 is the LRU victim, then upload m3 to blow the budget.
	if _, ok := s.store.Get(h2); !ok {
		t.Fatal("m2 missing")
	}
	uploadBinary(t, ts.URL, m3)

	if _, ok := s.store.Get(h1); ok {
		t.Fatal("m1 should have been evicted")
	}
	if s.plans.Len() != 0 {
		t.Fatalf("plans referencing an evicted matrix survived: %d", s.plans.Len())
	}
	// A multiply against the evicted hash is now a 404, not a crash.
	code, _ = postMultiply(t, ts.URL, MultiplyRequest{A: h1, B: h1})
	if code != http.StatusNotFound {
		t.Fatalf("evicted-matrix multiply: status %d, want 404", code)
	}
}

// TestUploadRacingEviction uploads into a store that keeps one matrix, from
// several goroutines at once, so a matrix is routinely evicted by another
// upload between its own Put and its response. Every upload must still be
// answered 200 with its own metadata.
func TestUploadRacingEviction(t *testing.T) {
	s := New(Config{MaxStoreBytes: 1})
	rng := rand.New(rand.NewSource(24))
	type upload struct {
		wire []byte
		want MatrixInfo
	}
	uploads := make([]upload, 64)
	for i := range uploads {
		m := matrix.Random(40, 40, 0.1, rng)
		var buf bytes.Buffer
		if err := matrix.WriteCSRBinary(&buf, m); err != nil {
			t.Fatal(err)
		}
		hash, err := HashMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		uploads[i] = upload{buf.Bytes(), matrixInfo(hash, m, false)}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("upload handler panicked: %v", p)
				}
			}()
			for i := 0; i < 200; i++ {
				up := uploads[(g*8+i)%len(uploads)]
				r := httptest.NewRequest("POST", "/v1/matrices", bytes.NewReader(up.wire))
				r.Header.Set("Content-Type", ContentTypeCSRBinary)
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, r)
				var got MatrixInfo
				if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || w.Code != http.StatusOK {
					t.Errorf("upload: status %d, %v: %s", w.Code, err, w.Body.Bytes())
					return
				}
				got.Interned = false
				if got != up.want {
					t.Errorf("upload answered %+v, want %+v", got, up.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPlanCacheLRUEviction(t *testing.T) {
	cache := NewPlanCache(2)
	rng := rand.New(rand.NewSource(10))
	a := matrix.Random(20, 20, 0.2, rng)
	mkPlan := func() *spgemm.Plan {
		p, err := spgemm.NewPlan(a, a, &spgemm.Options{Algorithm: spgemm.AlgHash})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	k1 := PlanKey{A: "1", B: "1", Workers: 1}
	k2 := PlanKey{A: "2", B: "2", Workers: 1}
	k3 := PlanKey{A: "3", B: "3", Workers: 1}
	cache.Add(k1, mkPlan())
	cache.Add(k2, mkPlan())
	if _, ok := cache.Get(k1); !ok { // bump k1: k2 becomes LRU
		t.Fatal("k1 missing")
	}
	cache.Add(k3, mkPlan())
	if _, ok := cache.Get(k2); ok {
		t.Fatal("k2 should have been evicted (LRU)")
	}
	if _, ok := cache.Get(k1); !ok {
		t.Fatal("k1 evicted despite recent use")
	}
	if _, ok := cache.Get(k3); !ok {
		t.Fatal("k3 missing")
	}
}

// TestServeGracefulShutdown exercises the Serve helper the CLI uses: cancel
// the context, and Serve returns after draining without truncating.
func TestServeGracefulShutdown(t *testing.T) {
	s := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, s.Handler(), 2*time.Second) }()

	base := "http://" + ln.Addr().String()
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestMultiplyAlgorithmOverrideAndPlanKeyIsolation: "heap" is accepted as an
// algorithm override, produces the same structure as "hash", is plannable
// (second call hits the plan cache), and its cached plan does NOT collide
// with the hash plan for the same operand pair — PlanKey includes the
// algorithm, so switching algorithms on the same matrices must miss the
// cache and recompute, not replay the other kernel's plan.
func TestMultiplyAlgorithmOverrideAndPlanKeyIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(9))
	a := matrix.Random(60, 50, 0.12, rng)
	b := matrix.Random(50, 70, 0.12, rng)
	ha := uploadBinary(t, ts.URL, a).Hash
	hb := uploadBinary(t, ts.URL, b).Hash

	want, err := spgemm.Multiply(a, b, &spgemm.Options{Algorithm: spgemm.AlgHeap})
	if err != nil {
		t.Fatal(err)
	}

	// heap: first call misses, second hits.
	code, body := postMultiply(t, ts.URL, MultiplyRequest{A: ha, B: hb, Algorithm: "heap"})
	if code != http.StatusOK {
		t.Fatalf("heap multiply: status %d: %s", code, body)
	}
	first := decodeMultiply(t, body)
	if first.PlanCacheHit {
		t.Fatal("first heap multiply claims a plan cache hit")
	}
	if first.NNZ != want.NNZ() || first.Rows != want.Rows || first.Cols != want.Cols {
		t.Fatalf("heap product shape: %+v, want %dx%d/%d", first, want.Rows, want.Cols, want.NNZ())
	}
	code, body = postMultiply(t, ts.URL, MultiplyRequest{A: ha, B: hb, Algorithm: "heap"})
	if code != http.StatusOK {
		t.Fatalf("repeat heap multiply: status %d: %s", code, body)
	}
	if second := decodeMultiply(t, body); !second.PlanCacheHit {
		t.Fatal("repeat heap multiply missed the plan cache")
	}

	// hash on the SAME operands: a different PlanKey, so the first call
	// must miss (no collision with the cached heap plan) and still agree.
	code, body = postMultiply(t, ts.URL, MultiplyRequest{A: ha, B: hb, Algorithm: "hash"})
	if code != http.StatusOK {
		t.Fatalf("hash multiply: status %d: %s", code, body)
	}
	hashFirst := decodeMultiply(t, body)
	if hashFirst.PlanCacheHit {
		t.Fatal("hash multiply hit the heap plan: PlanKey collision across algorithms")
	}
	if hashFirst.NNZ != want.NNZ() {
		t.Fatalf("hash product nnz %d, want %d", hashFirst.NNZ, want.NNZ())
	}
	code, body = postMultiply(t, ts.URL, MultiplyRequest{A: ha, B: hb, Algorithm: "hash"})
	if code != http.StatusOK {
		t.Fatalf("repeat hash multiply: status %d: %s", code, body)
	}
	if hashSecond := decodeMultiply(t, body); !hashSecond.PlanCacheHit {
		t.Fatal("repeat hash multiply missed its own plan")
	}

	// Full-matrix round trip through the heap plan: entry-for-entry equal to
	// the heap kernel's one-shot product.
	req, _ := json.Marshal(MultiplyRequest{A: ha, B: hb, Algorithm: "heap", Return: "matrix"})
	resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heap matrix return: status %d", resp.StatusCode)
	}
	got, err := matrix.ReadCSRBinary(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.ColIdx {
		if got.ColIdx[i] != want.ColIdx[i] || got.Val[i] != want.Val[i] {
			t.Fatalf("heap plan's product differs from the one-shot heap product at entry %d", i)
		}
	}
}

// TestMultiplyHeapIsPlanCached: Heap has a Plan like every other kernel, so a
// pair sent to it — by name, or by the recipe under "auto" — is a plan-cache
// hit from the second request on, with the product NaiveMultiply computes;
// and the one product no kernel accepts, heap on unsorted rows of B, is the
// same 422 every time rather than a silent one-shot fallback.
func TestMultiplyHeapIsPlanCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(12))
	a := matrix.Random(60, 50, 0.1, rng)
	b := matrix.Random(50, 70, 0.1, rng)
	er := gen.ER(9, 2, rng)
	if alg := spgemm.Recommend(er, er, true, spgemm.UseSquare); alg != spgemm.AlgHeap {
		t.Fatalf("fixture: the recipe answers %v on ER ef 2, want heap", alg)
	}

	// multiply posts one return=matrix request and decodes the product.
	multiply := func(req MultiplyRequest) (product *matrix.CSR, alg string, hit bool) {
		t.Helper()
		req.Return = "matrix"
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("%+v: status %d: %s", req, resp.StatusCode, msg)
		}
		if product, err = matrix.ReadCSRBinary(resp.Body); err != nil {
			t.Fatal(err)
		}
		return product, resp.Header.Get("X-Spgemm-Algorithm"), resp.Header.Get("X-Spgemm-Plan-Cache-Hit") == "true"
	}
	for _, tc := range []struct {
		name, algorithm string
		a, b            *matrix.CSR
	}{
		{"by name", "heap", a, b},
		{"by recipe", "auto", er, er},
	} {
		req := MultiplyRequest{A: uploadBinary(t, ts.URL, tc.a).Hash, B: uploadBinary(t, ts.URL, tc.b).Hash, Algorithm: tc.algorithm}
		want := matrix.NaiveMultiply(tc.a, tc.b)
		for round, wantHit := range []bool{false, true} {
			got, alg, hit := multiply(req)
			if alg != "heap" || hit != wantHit {
				t.Errorf("%s, request %d: algorithm %q planCacheHit %v, want heap and %v", tc.name, round+1, alg, hit, wantHit)
			}
			if !matrix.EqualApprox(got, want, 1e-9) {
				t.Errorf("%s, request %d: product differs from NaiveMultiply", tc.name, round+1)
			}
		}
	}

	unsortedB := uploadBinary(t, ts.URL, gen.Unsorted(b, rng)).Hash
	for round := 1; round <= 2; round++ {
		code, body := postMultiply(t, ts.URL, MultiplyRequest{A: uploadBinary(t, ts.URL, a).Hash, B: unsortedB, Algorithm: "heap"})
		if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), "sorted") {
			t.Errorf("heap on unsorted B, request %d: status %d: %s", round, code, body)
		}
	}
}

// replayMaps is the kernel package's spgemm_plan_replay_maps_total, fetched
// by name from the shared registry.
func replayMaps() int64 {
	return obs.DefaultRegistry().Counter("spgemm_plan_replay_maps_total", "").Value()
}

// TestReplayMapOnFirstCacheHitOnly drives the two served shapes through one
// server. Churn — every product a fresh B, so every Plan is built, executed
// once and never seen again — must build no replay map at all. A hot pair
// builds exactly one, on its first cache hit, and /healthz and the gauge
// report the bytes the cache then retains.
func TestReplayMapOnFirstCacheHitOnly(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(12))
	a := gen.RMAT(7, 8, gen.G500Params, rng)
	ha := uploadBinary(t, ts.URL, a).Hash
	multiply := func(hb string) MultiplyResponse {
		t.Helper()
		code, body := postMultiply(t, ts.URL, MultiplyRequest{A: ha, B: hb})
		if code != http.StatusOK {
			t.Fatalf("multiply: status %d: %s", code, body)
		}
		return decodeMultiply(t, body)
	}

	before := replayMaps()
	for j := 0; j < 6; j++ {
		hb := uploadBinary(t, ts.URL, gen.RMAT(7, 8, gen.G500Params, rng)).Hash
		if multiply(hb).PlanCacheHit {
			t.Fatalf("churn product %d hit the plan cache", j)
		}
	}
	if n := replayMaps() - before; n != 0 {
		t.Fatalf("churn built %d replay maps, want 0: no Plan ran twice", n)
	}

	for i, wantMaps := range []int64{0, 1, 1} {
		if hit := multiply(ha).PlanCacheHit; hit != (i > 0) {
			t.Fatalf("hot request %d: planCacheHit = %v", i, hit)
		}
		if n := replayMaps() - before; n != wantMaps {
			t.Fatalf("after hot request %d: %d replay maps, want %d", i, n, wantMaps)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status    string `json:"status"`
		Plans     int    `json:"plans"`
		PlanBytes int64  `json:"planBytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Plans != 7 || health.PlanBytes <= 0 || health.PlanBytes != s.plans.Bytes() || mPlanBytes.Value() != health.PlanBytes {
		t.Fatalf("/healthz reports %+v; cache holds %d bytes, gauge %d", health, s.plans.Bytes(), mPlanBytes.Value())
	}
}

// TestPlanCacheByteBudget: with a byte budget the cache evicts the LRU of
// two Plans whose Bytes sum exceeds it; NewPlanCache alone stays bounded by
// count only. Re-adding a cached key keeps the first Plan and its bytes.
func TestPlanCacheByteBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := matrix.Random(40, 40, 0.2, rng)
	mkPlan := func() *spgemm.Plan {
		p, err := spgemm.NewPlan(a, a, &spgemm.Options{Algorithm: spgemm.AlgHash})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	k1 := PlanKey{A: "1", B: "1", Workers: 1}
	k2 := PlanKey{A: "2", B: "2", Workers: 1}
	one := mkPlan().Bytes()
	if one <= 0 {
		t.Fatalf("Plan.Bytes() = %d", one)
	}

	counted := NewPlanCache(2)
	counted.Add(k1, mkPlan())
	counted.Add(k2, mkPlan())
	if counted.Len() != 2 || counted.Bytes() != 2*one {
		t.Fatalf("count-bounded cache: %d plans, %d bytes; want 2 and %d", counted.Len(), counted.Bytes(), 2*one)
	}

	budgeted := newPlanCache(2, 2*one-1)
	budgeted.Add(k1, mkPlan())
	budgeted.Add(k2, mkPlan())
	if _, ok := budgeted.Get(k1); ok {
		t.Fatal("k1 survived a byte budget below the two plans' sum")
	}
	if _, ok := budgeted.Get(k2); !ok {
		t.Fatal("the plan just added was evicted")
	}
	if budgeted.Len() != 1 || budgeted.Bytes() != one {
		t.Fatalf("byte-bounded cache: %d plans, %d bytes; want 1 and %d", budgeted.Len(), budgeted.Bytes(), one)
	}
	// Re-adding a key must not double-count its bytes.
	first, _ := budgeted.Get(k2)
	budgeted.Add(k2, mkPlan())
	if got, _ := budgeted.Get(k2); got != first || budgeted.Len() != 1 || budgeted.Bytes() != one {
		t.Fatalf("after re-adding k2: first plan kept %v, %d plans, %d bytes", got == first, budgeted.Len(), budgeted.Bytes())
	}
}

// TestStoreModeProductSurvivesRecycling: with one Context, so that every
// request builds its product in what the previous one donated, a stored
// product must stay what it was while meta and matrix requests of other pairs
// come and go; a product stored after them must not pin the larger arrays it
// was built in, whichever of its three arrays they are; and a hot meta
// request must no longer allocate its product.
func TestStoreModeProductSurvivesRecycling(t *testing.T) {
	s, ts := newTestServer(t, Config{Contexts: 1})
	rng := rand.New(rand.NewSource(19))
	a := gen.RMAT(10, 16, gen.G500Params, rng)
	b := gen.RMAT(10, 16, gen.G500Params, rng)
	small := matrix.Random(40, 40, 0.1, rng)
	ha, hb, hs := uploadBinary(t, ts.URL, a).Hash, uploadBinary(t, ts.URL, b).Hash, uploadBinary(t, ts.URL, small).Hash

	multiply := func(req MultiplyRequest) MultiplyResponse {
		t.Helper()
		code, body := postMultiply(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", req, code, body)
		}
		if req.Return == "matrix" {
			return MultiplyResponse{}
		}
		return decodeMultiply(t, body)
	}
	stored := multiply(MultiplyRequest{A: ha, B: hb, Return: "store"}).Hash
	for round := 0; round < 3; round++ {
		for _, pair := range [][2]string{{hb, ha}, {ha, ha}, {hs, hs}, {hb, hb}} {
			multiply(MultiplyRequest{A: pair[0], B: pair[1]})
			multiply(MultiplyRequest{A: pair[0], B: pair[1], Return: "matrix"})
		}
	}
	got, ok := s.store.Get(stored)
	if !ok {
		t.Fatal("stored product is gone")
	}
	if err := difftest.Equivalent(got, matrix.NaiveMultiply(a, b)); err != nil {
		t.Fatalf("stored product: %v", err)
	}

	// The Context now holds a G500-sized donation; the small product built in
	// it is interned at its own size.
	tiny, ok := s.store.Get(multiply(MultiplyRequest{A: hs, B: hs, Return: "store"}).Hash)
	if !ok {
		t.Fatal("stored product is gone")
	}
	if err := difftest.Equivalent(tiny, matrix.NaiveMultiply(small, small)); err != nil {
		t.Fatalf("small stored product: %v", err)
	}
	if slack := cap(tiny.Val) - len(tiny.Val); slack > len(tiny.Val) {
		t.Errorf("stored product of %d entries pins an array of %d", len(tiny.Val), cap(tiny.Val))
	}

	// A hot pair: the Plan exists and streams (the rounds above saw to that),
	// and the product lands in the previous request's arrays. The handler is
	// called directly so the delta is the request's own.
	body, err := json.Marshal(MultiplyRequest{A: ha, B: ha})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/multiply", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	if alloc := testalloc.Bytes(serve); alloc >= 64<<10 {
		t.Errorf("hot meta request allocated %d bytes, want < 64 KiB (its product is %d)", alloc, 12*matrix.NaiveMultiply(a, a).NNZ())
	}

	// Each array comes from its own donation slot. A small dense product
	// builds its Plan and donates its arrays; a product of many rows and few
	// entries takes and returns its value arrays and donates a long RowPtr.
	// The small product's plan hit, stored, then has exact value arrays in
	// that RowPtr, and must not pin it.
	s, ts = newTestServer(t, Config{Contexts: 1})
	dense, tall := matrix.Random(40, 40, 0.5, rng), matrix.Random(4096, 4096, 2e-5, rng)
	hd, ht := uploadBinary(t, ts.URL, dense).Hash, uploadBinary(t, ts.URL, tall).Hash
	multiply(MultiplyRequest{A: hd, B: hd})
	if nnz := multiply(MultiplyRequest{A: ht, B: ht}).NNZ; nnz == 0 || nnz >= matrix.NaiveMultiply(dense, dense).NNZ() {
		t.Fatalf("the many-row product has %d entries: it must take the small product's value arrays", nnz)
	}
	resp := multiply(MultiplyRequest{A: hd, B: hd, Return: "store"})
	if !resp.PlanCacheHit {
		t.Fatal("the stored product missed the plan cache")
	}
	got, ok = s.store.Get(resp.Hash)
	if !ok {
		t.Fatal("stored product is gone")
	}
	if err := difftest.Equivalent(got, matrix.NaiveMultiply(dense, dense)); err != nil {
		t.Fatalf("stored product: %v", err)
	}
	if cap(got.RowPtr) > 2*len(got.RowPtr) || cap(got.ColIdx) > 2*len(got.ColIdx) || cap(got.Val) > 2*len(got.Val) {
		t.Errorf("stored product of %d rows and %d entries pins arrays of %d, %d and %d",
			got.Rows, len(got.Val), cap(got.RowPtr), cap(got.ColIdx), cap(got.Val))
	}
}

// TestServeDropsSilentClient: a client that connects and never sends a request
// is disconnected after the header timeout, while a multiply that was already
// in flight — and stays in flight well past that timeout — still completes,
// because no write timeout bounds a response.
func TestServeDropsSilentClient(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond

	s := New(Config{})
	silentGone := make(chan struct{})
	held := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/multiply" {
			<-silentGone // in flight until the silent client has been dropped
		}
		s.Handler().ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, held, 2*time.Second) }()
	base := "http://" + ln.Addr().String()

	a := matrix.Random(30, 30, 0.2, rand.New(rand.NewSource(5)))
	ha := uploadBinary(t, base, a).Hash
	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, 1)
	go func() {
		body, _ := json.Marshal(MultiplyRequest{A: ha, B: ha})
		resp, err := http.Post(base+"/v1/multiply", "application/json", bytes.NewReader(body))
		if err != nil {
			replies <- reply{body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, b}
	}()

	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if err := silent.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := silent.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent client read %d bytes, err %v: the server did not drop it", n, err)
	}
	close(silentGone)

	r := <-replies
	if r.code != http.StatusOK {
		t.Fatalf("in-flight multiply: status %d: %s", r.code, r.body)
	}
	if mr := decodeMultiply(t, r.body); mr.NNZ != matrix.NaiveMultiply(a, a).NNZ() {
		t.Fatalf("in-flight multiply: nnz %d, want %d", mr.NNZ, matrix.NaiveMultiply(a, a).NNZ())
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}
