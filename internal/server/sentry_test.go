package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sentryFor builds a sentry with deterministic test tuning and no background
// loop — checks are driven by hand.
func sentryFor(baseline map[string]float64, sustain int) *Sentry {
	return NewSentry(SentryConfig{
		Baseline:   baseline,
		Ratio:      2,
		Sustain:    sustain,
		MinSamples: 3,
		alpha:      1, // EWMA == last observation: no warm-up in tests
	})
}

func feed(s *Sentry, alg string, flopsPerSec float64, n int) {
	for i := 0; i < n; i++ {
		// flop over 1ms of kernel time at the requested throughput.
		s.Observe(alg, int64(flopsPerSec/1e3), time.Millisecond)
	}
}

func TestSentryDegradesAndRecovers(t *testing.T) {
	s := sentryFor(map[string]float64{"hash": 1e9}, 2)

	// Healthy traffic: live ~= baseline.
	feed(s, "hash", 1e9, 5)
	s.check()
	s.check()
	if degraded, _, _ := s.State(); degraded {
		t.Fatal("degraded on healthy traffic")
	}

	// Sustained 10x regression: first failing check arms, second flips.
	feed(s, "hash", 1e8, 5)
	s.check()
	if degraded, _, _ := s.State(); degraded {
		t.Fatal("degraded after one failing check (Sustain=2)")
	}
	s.check()
	degraded, failing, since := s.State()
	if !degraded || since.IsZero() {
		t.Fatalf("not degraded after sustained regression: %v %v", degraded, since)
	}
	if len(failing) != 1 || failing[0].Alg != "hash" || failing[0].Ratio < 5 {
		t.Fatalf("failing report: %+v", failing)
	}

	// Hysteresis on recovery too: one healthy check does not flip back.
	feed(s, "hash", 1e9, 5)
	s.check()
	if degraded, _, _ := s.State(); !degraded {
		t.Fatal("recovered after one passing check (Sustain=2)")
	}
	s.check()
	if degraded, _, _ := s.State(); degraded {
		t.Fatal("still degraded after sustained recovery")
	}
}

func TestSentryIgnoresUnbaselinedAndCold(t *testing.T) {
	s := sentryFor(map[string]float64{"hash": 1e9}, 1)
	// Unbaselined algorithm never judged, however slow.
	feed(s, "heap", 1, 10)
	// Baselined but below MinSamples: not judged yet.
	feed(s, "hash", 1, 2)
	s.check()
	if degraded, _, _ := s.State(); degraded {
		t.Fatal("judged an unbaselined or cold algorithm")
	}
}

func TestLoadSentryBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	snap := map[string]any{
		"results": []map[string]any{
			{"alg": "hash", "variant": "oneshot", "mflops": 120.0},
			{"alg": "hash", "variant": "plan", "mflops": 250.0},
			{"alg": "heap", "variant": "oneshot", "mflops": 80.0},
		},
	}
	raw, _ := json.Marshal(snap)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadSentryBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	// Best variant wins; mflops counts two operations per product, the
	// sentry's flop/s one.
	if base["hash"] != 125e6 || base["heap"] != 40e6 {
		t.Fatalf("baseline = %v", base)
	}
	if _, err := LoadSentryBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestSentryBaselineUnit closes the loop between the two units: a kernel
// the snapshot recorded at 2 MFLOPS, observed doing 1e6 flop a second, is
// running at exactly its baseline — slowdown 1.0, not 2.0.
func TestSentryBaselineUnit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`{"results":[{"alg":"hash","variant":"oneshot","mflops":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadSentryBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	// Ratio 1 tolerates no slowdown at all, so the verdict is the unit check.
	s := NewSentry(SentryConfig{Baseline: base, Ratio: 1, Sustain: 1, MinSamples: 1, alpha: 1})
	s.Observe("hash", 1_000_000, time.Second)
	s.check()
	if degraded, failing, _ := s.State(); degraded {
		t.Fatalf("a kernel at its recorded throughput reads as slowed down: %+v", failing)
	}
	s.Observe("hash", 999_999, time.Second)
	s.check()
	degraded, failing, _ := s.State()
	if !degraded || len(failing) != 1 || failing[0].Ratio < 1 || failing[0].Ratio > 1.00001 {
		t.Fatalf("one flop/s under baseline: degraded=%v report=%+v, want slowdown just over 1.0", degraded, failing)
	}
}

// TestHealthzDegraded drives the server's sentry into the degraded state and
// checks /healthz flips to 503 with the failing algorithms in the body.
func TestHealthzDegraded(t *testing.T) {
	s, ts := newTestServer(t, Config{
		SentryBaseline:   map[string]float64{"hash": 1e12},
		SentryRatio:      2,
		SentrySustain:    1,
		SentryMinSamples: 1,
		SentryInterval:   time.Hour, // loop stays quiet; checks driven by hand
	})
	defer s.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz: status %d", resp.StatusCode)
	}

	// An impossible baseline (1 Tflop/s) makes any real observation failing.
	s.sentry.Observe("hash", 1000, time.Millisecond)
	s.sentry.check()
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz: status %d, want 503", resp2.StatusCode)
	}
	var body struct {
		Status   string      `json:"status"`
		Degraded []AlgHealth `json:"degraded"`
		Since    string      `json:"degradedSince"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "degraded" || len(body.Degraded) != 1 || body.Degraded[0].Alg != "hash" || body.Since == "" {
		t.Fatalf("degraded body: %+v", body)
	}
}
