package server

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// sentryConfig tunes the perf sentry: the background watchdog that compares
// each algorithm's live throughput with the best this process has sustained
// for it and degrades /healthz when the gap is sustained. The paper's own
// method — trust what the kernels measure on the machine that runs them —
// turned into a production control loop: the peak says what this process
// can do, the live EWMA says when it stops doing it (GC thrash, a noisy
// neighbour, a regression in a kernel), and no recorded file from another
// host sits between the two.
type sentryConfig struct {
	// ratio is the tolerated slowdown: an algorithm fails a check when its
	// live EWMA throughput is below peak/ratio. A sustained 4x drop from what
	// the same process has already done is pathological, not load.
	ratio float64
	// interval is the check cadence.
	interval time.Duration
	// sustain is how many consecutive failing checks flip the state to
	// degraded (and how many passing checks flip it back): one slow interval
	// is noise, sustain of them is a condition.
	sustain int
	// minSamples is the per-algorithm observation count before its EWMA
	// counts towards its peak; until then the algorithm is never judged.
	minSamples int64
	// alpha is the EWMA smoothing factor.
	alpha float64
}

// defaultSentry is the tuning Config.Sentry arms; tests build their own.
var defaultSentry = sentryConfig{ratio: 4, interval: 5 * time.Second, sustain: 2, minSamples: 20, alpha: 0.2}

// AlgHealth is one algorithm's live-vs-peak standing in the sentry's report
// (part of the /healthz body while degraded).
type AlgHealth struct {
	Alg       string  `json:"alg"`
	LiveFlops float64 `json:"liveFlops"`
	Baseline  float64 `json:"baselineFlops"` // the peak EWMA this process reached
	Ratio     float64 `json:"slowdown"`      // baseline / live
	Samples   int64   `json:"samples"`
	Failing   bool    `json:"failing"`
}

// sentry maintains per-algorithm flop/s EWMAs, and their peaks, fed from
// each request's ExecStats, and a background check loop that compares the
// two. observe is called from request handlers (mutex-guarded, ~ns against
// ms-scale requests); the loop goroutine owns the health state machine.
type sentry struct {
	cfg sentryConfig

	mu   sync.Mutex
	live map[string]*ewma

	stateMu  sync.Mutex
	degraded bool
	failing  []AlgHealth // snapshot from the last failing check
	streak   int         // consecutive checks agreeing against current state
	since    time.Time   // when the current state was entered

	haltOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

type ewma struct {
	value   float64
	peak    float64 // highest value once samples >= minSamples
	samples int64
}

func newSentry(cfg sentryConfig) *sentry {
	return &sentry{
		cfg:  cfg,
		live: make(map[string]*ewma),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// observe feeds one completed multiply: flop of work done in kernelTime
// (ExecStats.Total — kernel wall time, not end-to-end latency, so queue
// waits under load do not masquerade as kernel regressions).
func (s *sentry) observe(alg string, flop int64, kernelTime time.Duration) {
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
	if e.samples >= s.cfg.minSamples && e.value > e.peak {
		e.peak = e.value
	}
	s.mu.Unlock()
}

// start launches the check loop; halt ends it.
func (s *sentry) start() {
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.interval)
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

// halt terminates the check loop and waits for it to exit.
func (s *sentry) halt() {
	s.haltOnce.Do(func() { close(s.stop) })
	<-s.done
}

// check is one control-loop step: judge every algorithm that has a peak,
// then advance the sustained-state machine.
func (s *sentry) check() {
	var failing []AlgHealth
	s.mu.Lock()
	for alg, e := range s.live {
		if e.peak <= 0 {
			continue
		}
		if e.value < e.peak/s.cfg.ratio {
			failing = append(failing, AlgHealth{
				Alg: alg, LiveFlops: e.value, Baseline: e.peak,
				Ratio: e.peak / e.value, Samples: e.samples, Failing: true,
			})
		}
	}
	s.mu.Unlock()
	s.advance(len(failing) > 0, failing)
}

// advance runs the hysteresis: sustain consecutive checks disagreeing with
// the current state flip it, anything else only moves the streak.
func (s *sentry) advance(bad bool, failing []AlgHealth) {
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
	if s.streak < s.cfg.sustain {
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

// state returns the current health state and, while degraded, the failing
// algorithms from the most recent check.
func (s *sentry) state() (degraded bool, failing []AlgHealth, since time.Time) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.degraded, append([]AlgHealth(nil), s.failing...), s.since
}
