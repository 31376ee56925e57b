package memmodel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/spgemm"
)

func TestTierBandwidthShape(t *testing.T) {
	tier := Tier{Name: "x", PeakGBps: 100, LatencyNs: 100}
	// Monotone increasing in stanza length.
	prev := 0.0
	for _, l := range []float64{8, 64, 512, 4096, 1 << 20} {
		bw := tier.Bandwidth(l)
		if bw <= prev {
			t.Fatalf("bandwidth not increasing at %v: %v <= %v", l, bw, prev)
		}
		prev = bw
	}
	// Saturates near peak for huge stanzas.
	if bw := tier.Bandwidth(1 << 30); bw < 99 || bw > 100 {
		t.Fatalf("asymptotic bandwidth %v, want ≈100", bw)
	}
	// Latency-bound for tiny stanzas: 8B / 100ns = 0.08 GB/s.
	if bw := tier.Bandwidth(8); math.Abs(bw-0.0799) > 0.01 {
		t.Fatalf("8B bandwidth %v, want ≈0.08", bw)
	}
	if tier.Bandwidth(0) != 0 {
		t.Fatal("zero stanza must give zero bandwidth")
	}
}

func TestTierTimeFor(t *testing.T) {
	tier := Tier{PeakGBps: 10, LatencyNs: 0}
	// 10 GB at 10 GB/s = 1 s.
	if got := tier.TimeFor(10e9, 1<<20); math.Abs(got-1) > 0.01 {
		t.Fatalf("TimeFor = %v, want ≈1", got)
	}
	if tier.TimeFor(0, 64) != 0 {
		t.Fatal("zero bytes must cost zero time")
	}
}

func TestMCDRAMFromRatios(t *testing.T) {
	ddr := Tier{Name: "ddr", PeakGBps: 90, LatencyNs: 120}
	mc := MCDRAMFrom(ddr)
	if mc.PeakGBps != 90*MCDRAMPeakRatio || mc.LatencyNs != 120*MCDRAMLatencyRatio {
		t.Fatalf("mcdram = %+v", mc)
	}
	// The crossover property of Figure 5: MCDRAM worse or equal at tiny
	// stanzas, much better at large ones.
	if mc.Bandwidth(8) > ddr.Bandwidth(8) {
		t.Fatal("MCDRAM should not beat DDR at 8-byte stanzas (latency-bound)")
	}
	if mc.Bandwidth(1<<20) < 3*ddr.Bandwidth(1<<20) {
		t.Fatal("MCDRAM should approach 3.4x at streaming sizes")
	}
}

func TestFitTierRecoversSyntheticTier(t *testing.T) {
	truth := Tier{PeakGBps: 50, LatencyNs: 200}
	var results []StanzaResult
	for _, l := range []int{16, 64, 256, 1024, 4096, 16384} {
		results = append(results, StanzaResult{StanzaBytes: l, GBps: truth.Bandwidth(float64(l))})
	}
	fit, err := FitTier("fit", results)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.PeakGBps-50) > 1 {
		t.Fatalf("peak = %v, want 50", fit.PeakGBps)
	}
	if math.Abs(fit.LatencyNs-200) > 5 {
		t.Fatalf("latency = %v, want 200", fit.LatencyNs)
	}
}

func TestFitTierErrors(t *testing.T) {
	if _, err := FitTier("x", nil); err == nil {
		t.Fatal("expected error with no points")
	}
	same := []StanzaResult{{64, 1}, {64, 2}}
	if _, err := FitTier("x", same); err == nil {
		t.Fatal("expected degenerate-fit error")
	}
	// Short stanzas faster than long ones, as from a probe that sits in
	// cache: the regression's latency is negative, and a tier without
	// latency would model every access profile at the bare peak ratio.
	cached := []StanzaResult{{16, 4}, {4096, 3.2}}
	if tier, err := FitTier("x", cached); err == nil {
		t.Fatalf("expected non-physical-fit error, got %+v", tier)
	}
}

func TestMeasureStanzaBandwidthRunsAndRises(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement skipped in -short")
	}
	results := MeasureStanzaBandwidth(1<<22, []int{8, 4096}, 20*time.Millisecond)
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	for _, r := range results {
		if r.GBps <= 0 {
			t.Fatalf("non-positive bandwidth: %+v", r)
		}
	}
	// Longer stanzas must deliver more bandwidth (the Figure 5 shape).
	if results[1].GBps <= results[0].GBps {
		t.Fatalf("4KiB stanza (%v GB/s) not faster than 8B (%v GB/s)", results[1].GBps, results[0].GBps)
	}
}

func TestModeledSpeedupReproducesFigure10Shape(t *testing.T) {
	ddr := DefaultDDR
	mc := MCDRAMFrom(ddr)
	rng := rand.New(rand.NewSource(401))
	sparse := gen.RMAT(12, 4, gen.G500Params, rng)
	dense := gen.RMAT(12, 32, gen.G500Params, rng)
	stSparse := spgemm.CollectAccessStats(sparse, sparse, 0)
	stDense := spgemm.CollectAccessStats(dense, dense, 0)

	// Hash on dense matrices benefits more than on sparse (Figure 10's
	// rising curves).
	spSparse := ModeledSpeedup(stSparse, ddr, mc, StanzaReads)
	spDense := ModeledSpeedup(stDense, ddr, mc, StanzaReads)
	if spDense <= spSparse {
		t.Fatalf("dense speedup %v should exceed sparse %v", spDense, spSparse)
	}
	// Heap (fine-grained) gains little or even degrades.
	heapSp := ModeledSpeedup(stDense, ddr, mc, FineGrained)
	if heapSp > 1.1 {
		t.Fatalf("heap modeled speedup %v should be ≈1 or below", heapSp)
	}
	if heapSp >= spDense {
		t.Fatal("heap should benefit less than hash on dense inputs")
	}
	// All speedups in a plausible Figure 10 band.
	for _, s := range []float64{spSparse, spDense, heapSp} {
		if s < 0.5 || s > MCDRAMPeakRatio {
			t.Fatalf("speedup %v outside plausible band", s)
		}
	}
}

func TestModeledTimePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	a := gen.ER(8, 4, rng)
	st := spgemm.CollectAccessStats(a, a, 0)
	if ModeledTime(st, DefaultDDR, StanzaReads) <= 0 {
		t.Fatal("modeled time must be positive")
	}
	if ModeledTime(st, DefaultDDR, FineGrained) <= 0 {
		t.Fatal("modeled time must be positive")
	}
}
