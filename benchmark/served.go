package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/server"
	"repro/internal/spgemm"
)

const (
	hotMatrices  = 4  // served_hot multiplies the pairs (i, i+1 mod 4)
	churnPool    = 32 // distinct B_j; must exceed what the store holds
	churnStoreBs = 16 // the store is sized to A plus this many B_j
	// Every hotFullCheck-th hot op is followed, outside the timer, by a
	// return=matrix request that is decoded and compared entry by entry:
	// a meta response carries counts but no values.
	hotFullCheck = 100
)

// product is one multiply the served workloads issue, with its oracle.
type product struct {
	a, b         *matrix.CSR
	hashA, hashB string // served_churn learns hashB from each upload instead
	wireB        []byte // pre-encoded SPGB upload body (served_churn)
	want         *matrix.CSR
	flop         int64
}

// served runs the multiply server in-process behind a loopback listener and
// drives it over HTTP: served_hot re-multiplies resident pairs, served_churn
// uploads a fresh right-hand side before every multiply.
type served struct {
	churn    bool
	products []product
	pos      []int64

	srv    *server.Server
	stop   context.CancelFunc
	done   chan error
	base   string
	client *http.Client

	// Direct-call state for kernel(): what the handler does between
	// checking a Context out and answering.
	kctx *spgemm.Context
	plan *spgemm.Plan

	mu  sync.Mutex
	obs servedObs
}

// servedObs is what the responses and the client clock say about each
// request; layerMetrics turns it into the server.* metrics.
type servedObs struct {
	kernel, queue, overhead, upload []float64
	respBytes                       int64
	requests, planHits, rejected    int
}

// hotResult and churnResult are what op hands to verify.
type hotResult struct {
	p    int
	meta server.MultiplyResponse
}

type churnResult struct {
	p    int
	body []byte
}

func newServed(rng *rand.Rand, w int, churn bool) (instance, error) {
	s := &served{churn: churn, kctx: spgemm.NewContext()}
	cfg := server.Config{Contexts: w, Workers: 1}
	// resident are the matrices uploaded once, here in set-up: product i
	// multiplies resident[i mod n] by resident[i+1 mod n] on served_hot, and
	// by its own freshly uploaded B_j on served_churn.
	var resident []*matrix.CSR
	if churn {
		a := gen.RMAT(9, 16, gen.G500Params, rng)
		resident = []*matrix.CSR{a}
		for j := 0; j < churnPool; j++ {
			b := gen.RMAT(9, 16, gen.G500Params, rng)
			s.products = append(s.products, product{a: a, b: b, wireB: wireOf(b)})
		}
		cfg.MaxStoreBytes = matrix.WireSize(a) + churnStoreBs*matrix.WireSize(s.products[0].b)
	} else {
		for i := 0; i < hotMatrices; i++ {
			resident = append(resident, gen.RMAT(10, 16, gen.G500Params, rng))
		}
		for i, a := range resident {
			s.products = append(s.products, product{a: a, b: resident[(i+1)%hotMatrices]})
		}
	}
	for i := range s.products {
		p := &s.products[i]
		p.want = matrix.NaiveMultiply(p.a, p.b)
		p.flop, _ = matrix.Flop(p.a, p.b)
	}
	s.pos = newPos(s.products[0].b.Cols)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = server.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	s.stop, s.done = cancel, make(chan error, 1)
	go func() { s.done <- server.Serve(ctx, ln, s.srv.Handler(), 5*time.Second) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w}, Timeout: 60 * time.Second}

	hashes := make([]string, len(resident))
	for i, m := range resident {
		if hashes[i], err = s.upload(wireOf(m)); err != nil {
			s.close()
			return nil, err
		}
	}
	for i := range s.products {
		p := &s.products[i]
		p.hashA = hashes[i%len(hashes)]
		if !churn {
			p.hashB = hashes[(i+1)%len(hashes)]
			// One return=matrix request per hot pair, compared in full: it
			// proves the values and leaves the pair's Plan cached.
			if !s.fullCheck(i) {
				s.close()
				return nil, fmt.Errorf("served_hot: pair %d differs from the oracle", i)
			}
		}
	}
	return s, nil
}

func wireOf(m *matrix.CSR) []byte {
	var buf bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = matrix.WriteCSRBinary(&buf, m)
	return buf.Bytes()
}

// post sends one request and returns the whole response body.
func (s *served) post(path, contentType string, body []byte) ([]byte, http.Header, error) {
	resp, err := s.client.Post(s.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			s.mu.Lock()
			s.obs.rejected++
			s.mu.Unlock()
		}
		return nil, nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, resp.Header, nil
}

func (s *served) upload(wire []byte) (string, error) {
	out, _, err := s.post("/v1/matrices", server.ContentTypeCSRBinary, wire)
	if err != nil {
		return "", err
	}
	var info server.MatrixInfo
	if err := json.Unmarshal(out, &info); err != nil {
		return "", err
	}
	return info.Hash, nil
}

func (s *served) multiply(hashA, hashB, ret string, v variant) ([]byte, http.Header, error) {
	req := server.MultiplyRequest{A: hashA, B: hashB, Return: ret, Workers: v.workers}
	if v.alg != spgemm.AlgAuto {
		req.Algorithm = v.alg.String()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	return s.post("/v1/multiply", "application/json", body)
}

func (s *served) op(i int, v variant, tr *opTrace) (any, error) {
	p := &s.products[i%len(s.products)]
	t0 := time.Now()
	if s.churn {
		hashB, err := s.upload(p.wireB)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		body, hdr, err := s.multiply(p.hashA, hashB, "matrix", v)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		tr.child(-1, "server.upload", t0, t1)
		tr.child(-1, "server.multiply", t1, t2)
		s.mu.Lock()
		s.obs.requests++
		s.obs.upload = append(s.obs.upload, t1.Sub(t0).Seconds())
		s.obs.respBytes += int64(len(body))
		if hdr.Get("X-Spgemm-Plan-Cache-Hit") == "true" {
			s.obs.planHits++
		}
		s.mu.Unlock()
		return churnResult{p: i % len(s.products), body: body}, nil
	}
	body, _, err := s.multiply(p.hashA, p.hashB, "meta", v)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	res := hotResult{p: i % len(s.products)}
	if err := json.Unmarshal(body, &res.meta); err != nil {
		return nil, err
	}
	// The response says how long the handler held the request and how much
	// of that was queueing, not when; the handler span is centred in the
	// client's interval, which leaves every duration and self time exact.
	client := t1.Sub(t0)
	held := time.Duration(res.meta.ElapsedSeconds * float64(time.Second))
	if tr != nil && held <= client {
		start := t0.Add((client - held) / 2)
		h := tr.child(-1, "server.handler", start, start.Add(held))
		tr.child(h, "server.queue", start, start.Add(time.Duration(res.meta.QueueSeconds*float64(time.Second))))
	}
	s.mu.Lock()
	s.obs.requests++
	s.obs.kernel = append(s.obs.kernel, res.meta.ElapsedSeconds)
	s.obs.queue = append(s.obs.queue, res.meta.QueueSeconds)
	s.obs.overhead = append(s.obs.overhead, client.Seconds()-res.meta.ElapsedSeconds)
	s.obs.respBytes += int64(len(body))
	if res.meta.PlanCacheHit {
		s.obs.planHits++
	}
	s.mu.Unlock()
	return res, nil
}

// fullCheck fetches product p whole, outside any timer, and compares it.
func (s *served) fullCheck(p int) bool {
	pr := &s.products[p]
	body, _, err := s.multiply(pr.hashA, pr.hashB, "matrix", variant{})
	if err != nil {
		return false
	}
	return s.sameWire(body, pr.want)
}

func (s *served) sameWire(body []byte, want *matrix.CSR) bool {
	got, err := matrix.ReadCSRBinary(bytes.NewReader(body))
	return err == nil && sameProduct(got, want, s.pos)
}

func (s *served) verify(i int, res any) bool {
	switch r := res.(type) {
	case churnResult:
		return s.sameWire(r.body, s.products[r.p].want)
	case hotResult:
		want := s.products[r.p]
		ok := r.meta.Rows == want.want.Rows && r.meta.Cols == want.want.Cols &&
			r.meta.NNZ == want.want.NNZ() && r.meta.Flop == want.flop
		if ok && i%hotFullCheck == 0 {
			ok = s.fullCheck(r.p)
		}
		return ok
	}
	return false
}

// kernel replays what the handler does for this workload's requests: build
// the Plan (a churn request always does, a hot request never does) and
// execute it in a checked-out Context.
func (s *served) kernel(st *spgemm.ExecStats) error {
	r := s.rep()
	opt := r.opt
	opt.Context = s.kctx
	var build spgemm.ExecStats
	if s.churn || s.plan == nil {
		opt.Stats = &build
		plan, err := spgemm.NewPlan(r.a, r.b, &opt)
		if err != nil { // not plan-eligible: the handler multiplies one-shot
			opt.Stats = st
			_, err = spgemm.Multiply(r.a, r.b, &opt)
			return err
		}
		s.plan = plan
		if !s.churn {
			build = spgemm.ExecStats{}
		}
	}
	var exec spgemm.ExecStats
	if _, err := s.plan.ExecuteIn(s.kctx, &exec); err != nil {
		return err
	}
	build.Add(&exec)
	*st = build
	return nil
}

func (s *served) rep() repProduct {
	p := s.products[0]
	return repProduct{a: p.a, b: p.b, opt: spgemm.Options{Workers: 1}, planCached: !s.churn}
}

func (s *served) layerMetrics(ms metricSet) {
	s.mu.Lock()
	o := s.obs
	s.mu.Unlock()
	q := sortedCopy(o.queue)
	ms.set("server.kernel_s_p50", median(o.kernel))
	ms.set("server.queue_s_p50", median(q))
	if p99, ok := percentile(q, 0.99); ok {
		ms.set("server.queue_s_p99", p99)
	}
	ms.set("server.http_overhead_s_p50", median(o.overhead))
	ms.set("server.upload_s_p50", median(o.upload))
	if o.requests > 0 {
		ms.set("server.resp_mb", float64(o.respBytes)/float64(o.requests)/1e6)
		ms.set("server.plan_hit_frac", float64(o.planHits)/float64(o.requests))
	}
	ms.set("server.rejected", float64(o.rejected))
}

// close stops the server and waits for it to drain.
func (s *served) close() error {
	s.client.CloseIdleConnections()
	s.stop()
	err := <-s.done
	s.srv.Close()
	return err
}
