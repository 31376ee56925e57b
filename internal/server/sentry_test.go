package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// sentryFor builds a sentry with deterministic test tuning and no background
// loop — checks are driven by hand.
func sentryFor(sustain int) *sentry {
	return newSentry(sentryConfig{
		ratio:      2,
		interval:   time.Hour,
		sustain:    sustain,
		minSamples: 3,
		alpha:      1, // EWMA == last observation: no warm-up in tests
	})
}

func feed(s *sentry, alg string, flopsPerSec float64, n int) {
	for i := 0; i < n; i++ {
		// One second of kernel time, so the observed flop/s is exact.
		s.observe(alg, int64(flopsPerSec), time.Second)
	}
}

func assertDegraded(t *testing.T, s *sentry, want bool, when string) {
	t.Helper()
	if degraded, failing, _ := s.state(); degraded != want {
		t.Fatalf("%s: degraded = %v, want %v (report %+v)", when, degraded, want, failing)
	}
}

// TestSentryBaselinesItself: the sentry's baseline for an algorithm is the
// peak EWMA that algorithm reached in this process, counted from its
// minSamples-th observation; no recorded file is involved.
func TestSentryBaselinesItself(t *testing.T) {
	const x = 1e9
	s := newSentry(sentryConfig{ratio: 4, interval: time.Hour, sustain: 2, minSamples: 20, alpha: 1})

	// Held at X for minSamples, then at X/10: sustain checks to degrade.
	feed(s, "hash", x, 20)
	// Below minSamples: never judged, however far it falls.
	feed(s, "heap", x, 18)
	feed(s, "heap", x/1000, 1)
	s.check()
	assertDegraded(t, s, false, "at the peak")
	feed(s, "hash", x/10, 5)
	s.check()
	assertDegraded(t, s, false, "one failing check of two")
	s.check()
	assertDegraded(t, s, true, "two failing checks")
	_, failing, since := s.state()
	if since.IsZero() || len(failing) != 1 || failing[0].Alg != "hash" {
		t.Fatalf("failing report: %+v (since %v), want hash alone", failing, since)
	}
	if h := failing[0]; h.Baseline != x || h.LiveFlops != x/10 || h.Ratio != 10 || h.Samples != 25 {
		t.Fatalf("report %+v: want baseline %g (the peak), live %g, slowdown 10, 25 samples", h, x, x/10)
	}

	// Recovery needs sustain passing checks too.
	feed(s, "hash", x, 1)
	s.check()
	assertDegraded(t, s, true, "one passing check of two")
	s.check()
	assertDegraded(t, s, false, "two passing checks")
}

// TestSentryIgnoresUnbaselinedAndCold: observations before minSamples never
// set the peak, so a cold-start spike is not a baseline the steady state can
// fail against.
func TestSentryIgnoresUnbaselinedAndCold(t *testing.T) {
	s := sentryFor(1)
	feed(s, "hash", 1e12, 2) // a spike while cold
	feed(s, "hash", 1e9, 10) // the steady state
	s.check()
	assertDegraded(t, s, false, "steady after a cold spike")
	if e := s.live["hash"]; e.peak != 1e9 {
		t.Fatalf("peak = %g, want the steady 1e9", e.peak)
	}
}

func TestSentryDegradesAndRecovers(t *testing.T) {
	s := sentryFor(2)

	// Healthy traffic: live == peak.
	feed(s, "hash", 1e9, 5)
	s.check()
	s.check()
	assertDegraded(t, s, false, "healthy traffic")

	// Sustained 10x regression: first failing check arms, second flips.
	feed(s, "hash", 1e8, 5)
	s.check()
	assertDegraded(t, s, false, "one failing check (sustain 2)")
	s.check()
	degraded, failing, since := s.state()
	if !degraded || since.IsZero() {
		t.Fatalf("not degraded after sustained regression: %v %v", degraded, since)
	}
	if len(failing) != 1 || failing[0].Alg != "hash" || failing[0].Ratio < 5 {
		t.Fatalf("failing report: %+v", failing)
	}

	// Hysteresis on recovery too: one healthy check does not flip back.
	feed(s, "hash", 1e9, 5)
	s.check()
	assertDegraded(t, s, true, "one passing check (sustain 2)")
	s.check()
	assertDegraded(t, s, false, "sustained recovery")
}

// TestHealthzDegraded drives an armed server's sentry into the degraded state
// with its default tuning and checks /healthz flips to 503 with the failing
// algorithm in the body.
func TestHealthzDegraded(t *testing.T) {
	s, ts := newTestServer(t, Config{Sentry: true})
	defer s.Close()

	healthz := func(want int) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			resp.Body.Close()
			t.Fatalf("/healthz: status %d, want %d", resp.StatusCode, want)
		}
		return resp
	}

	// Reach a peak, then fall 100x for long enough that the EWMA follows.
	cfg := s.sentry.cfg
	feed(s.sentry, "hash", 1e9, int(cfg.minSamples))
	s.sentry.check()
	healthz(http.StatusOK).Body.Close()
	feed(s.sentry, "hash", 1e7, 40)
	for i := 0; i < cfg.sustain; i++ {
		s.sentry.check()
	}
	resp := healthz(http.StatusServiceUnavailable)
	defer resp.Body.Close()
	var body struct {
		Status   string      `json:"status"`
		Degraded []AlgHealth `json:"degraded"`
		Since    string      `json:"degradedSince"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "degraded" || len(body.Degraded) != 1 || body.Degraded[0].Alg != "hash" || body.Since == "" {
		t.Fatalf("degraded body: %+v", body)
	}
	if b := body.Degraded[0].Baseline; b != 1e9 {
		t.Fatalf("baselineFlops = %g, want the peak 1e9", b)
	}
}
