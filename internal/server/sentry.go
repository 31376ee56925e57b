package server

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// SentryConfig tunes the perf sentry: the background watchdog that compares
// the server's live per-algorithm throughput against the machine's own
// recorded baseline and degrades /healthz when the gap is sustained. The
// paper's own method — trust per-kernel measurement, not assumptions — turned
// into a production control loop: BENCH_spgemm.json says what this machine
// can do; the sentry says when the serving process stops doing it (GC
// thrash, noisy neighbor, a regression shipped in a kernel).
type SentryConfig struct {
	// Baseline maps algorithm name → expected throughput in flop/s,
	// typically from LoadSentryBaseline(BENCH_spgemm.json). Algorithms
	// without a baseline are never judged.
	Baseline map[string]float64
	// Ratio is the tolerated slowdown: the sentry flags an algorithm when
	// its live EWMA throughput drops below Baseline/Ratio. Default 4 —
	// serving overhead, small operands and contended contexts legitimately
	// cost a few x against an offline single-threaded bench; a sustained 4x
	// regression is pathological. Must be >= 1.
	Ratio float64
	// Interval is the check cadence. Default 5s.
	Interval time.Duration
	// Sustain is how many consecutive failing checks flip the state to
	// degraded (and how many passing checks flip it back) — one slow
	// interval is noise, Sustain of them is a condition. Default 2.
	Sustain int
	// MinSamples is the per-algorithm observation count before the sentry
	// judges it at all. Default 20.
	MinSamples int64
	// alpha is the EWMA smoothing factor (tests only; default 0.2).
	alpha float64
}

func (c SentryConfig) withDefaults() SentryConfig {
	if c.Ratio < 1 {
		c.Ratio = 4
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Sustain < 1 {
		c.Sustain = 2
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.alpha <= 0 || c.alpha > 1 {
		c.alpha = 0.2
	}
	return c
}

// AlgHealth is one algorithm's live-vs-baseline standing in the sentry's
// report (part of the /healthz body while degraded).
type AlgHealth struct {
	Alg       string  `json:"alg"`
	LiveFlops float64 `json:"liveFlops"`
	Baseline  float64 `json:"baselineFlops"`
	Ratio     float64 `json:"slowdown"` // baseline / live
	Samples   int64   `json:"samples"`
	Failing   bool    `json:"failing"`
}

// Sentry maintains per-algorithm flop/s EWMAs fed from each request's
// ExecStats and a background check loop that compares them to the baseline.
// Observe is called from request handlers (mutex-guarded, ~ns against
// ms-scale requests); the loop goroutine owns the health state machine.
type Sentry struct {
	cfg SentryConfig

	mu   sync.Mutex
	live map[string]*ewma

	stateMu  sync.Mutex
	degraded bool
	failing  []AlgHealth // snapshot from the last failing check
	streak   int         // consecutive checks agreeing against current state
	since    time.Time   // when the current state was entered

	stop chan struct{}
	done chan struct{}
}

type ewma struct {
	value   float64
	samples int64
}

// NewSentry returns a sentry; Start launches its check loop.
func NewSentry(cfg SentryConfig) *Sentry {
	return &Sentry{
		cfg:  cfg.withDefaults(),
		live: make(map[string]*ewma),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Observe feeds one completed multiply: flop of work done in kernelTime
// (ExecStats.Total — kernel wall time, not end-to-end latency, so queue
// waits under load do not masquerade as kernel regressions).
func (s *Sentry) Observe(alg string, flop int64, kernelTime time.Duration) {
	if flop <= 0 || kernelTime <= 0 {
		return
	}
	tput := float64(flop) / kernelTime.Seconds()
	s.mu.Lock()
	e := s.live[alg]
	if e == nil {
		e = &ewma{value: tput}
		s.live[alg] = e
	}
	e.value += s.cfg.alpha * (tput - e.value)
	e.samples++
	s.mu.Unlock()
}

// Start launches the check loop; Stop ends it.
func (s *Sentry) Start() {
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.check()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop terminates the check loop and waits for it to exit.
func (s *Sentry) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// check is one control-loop step: evaluate every baselined algorithm, then
// advance the sustained-state machine.
func (s *Sentry) check() {
	var failing []AlgHealth
	s.mu.Lock()
	for alg, base := range s.cfg.Baseline {
		e := s.live[alg]
		if e == nil || e.samples < s.cfg.MinSamples || base <= 0 {
			continue
		}
		h := AlgHealth{
			Alg: alg, LiveFlops: e.value, Baseline: base,
			Ratio: base / e.value, Samples: e.samples,
			Failing: e.value < base/s.cfg.Ratio,
		}
		if h.Failing {
			failing = append(failing, h)
		}
	}
	s.mu.Unlock()
	s.advance(len(failing) > 0, failing)
}

// advance runs the hysteresis: Sustain consecutive checks disagreeing with
// the current state flip it, anything else only moves the streak.
func (s *Sentry) advance(bad bool, failing []AlgHealth) {
	s.stateMu.Lock()
	if bad == s.degraded {
		s.streak = 0
		if bad {
			s.failing = failing // refresh the report while degraded
		}
		s.stateMu.Unlock()
		return
	}
	s.streak++
	if s.streak < s.cfg.Sustain {
		s.stateMu.Unlock()
		return
	}
	s.degraded = bad
	s.failing = failing
	s.streak = 0
	s.since = time.Now()
	s.stateMu.Unlock()

	mSentryTransitions.Inc()
	log := obs.Logger()
	if bad {
		mSentryDegraded.Set(1)
		for _, h := range failing {
			log.Warn("perf sentry: degraded",
				"alg", h.Alg, "liveFlops", h.LiveFlops, "baselineFlops", h.Baseline,
				"slowdown", h.Ratio, "samples", h.Samples)
		}
	} else {
		mSentryDegraded.Set(0)
		log.Info("perf sentry: recovered")
	}
}

// State returns the current health state and, while degraded, the failing
// algorithms from the most recent check.
func (s *Sentry) State() (degraded bool, failing []AlgHealth, since time.Time) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.degraded, append([]AlgHealth(nil), s.failing...), s.since
}

// LoadSentryBaseline extracts per-algorithm throughput baselines (flop/s)
// from a BENCH_spgemm.json snapshot written by spgemm-bench: for every
// algorithm it takes the best mflops across recorded variants (oneshot /
// context / plan) — the machine's demonstrated capability for that kernel.
// The snapshot's mflops is the paper's metric, 2·flop per microsecond (a
// multiply and an add per product, bench.mflops); Observe is fed ExecStats'
// flop, one per product, so a row of M mflops is a baseline of M·1e6/2.
func LoadSentryBaseline(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap struct {
		Results []struct {
			Alg    string  `json:"alg"`
			Mflops float64 `json:"mflops"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	base := make(map[string]float64)
	for _, r := range snap.Results {
		if f := r.Mflops * 1e6 / 2; f > base[r.Alg] {
			base[r.Alg] = f
		}
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("%s: no per-algorithm results to baseline against", path)
	}
	return base, nil
}
