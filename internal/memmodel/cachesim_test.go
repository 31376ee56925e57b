package memmodel

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	if c.Access(0) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0) {
		t.Fatal("second access should hit")
	}
	if !c.Access(63) {
		t.Fatal("same line should hit")
	}
	if c.Access(64) {
		t.Fatal("next line should miss")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate %v", c.MissRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with 8 sets of 64B lines: addresses 0, 1024, 2048 all map
	// to set 0 (line numbers 0, 16, 32; 16 mod 8 = 0...). Line = addr/64;
	// set = line mod 8. Lines 0, 8, 16 → addresses 0, 512, 1024.
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	c.Access(0)    // set 0: [0]
	c.Access(512)  // set 0: [8, 0]
	c.Access(1024) // evicts LRU (line 0): [16, 8]
	if c.Access(0) {
		t.Fatal("line 0 should have been evicted (LRU)")
	}
	// Line 8 must still be resident (it was MRU before the eviction).
	// After the miss on 0, set is [0, 16]; line 8 was evicted by 0's fill.
	// Touch 16: should hit.
	if !c.Access(1024) {
		t.Fatal("line 16 should be resident")
	}
}

func TestCacheLRUOrderingUpdatedOnHit(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	c.Access(0)   // [0]
	c.Access(512) // [8, 0]
	c.Access(0)   // hit: [0, 8]
	c.Access(1024)
	// Eviction should remove line 8 (LRU), keeping 0.
	if !c.Access(0) {
		t.Fatal("recently-used line 0 must survive eviction")
	}
	if c.Access(512) {
		t.Fatal("line 8 should have been evicted")
	}
}

func TestCacheSequentialStreamMissRate(t *testing.T) {
	// Streaming 4-byte accesses over a range far exceeding the cache: one
	// miss per 64-byte line → miss rate 1/16.
	c := NewCache(CacheConfig{SizeBytes: 1 << 14, LineBytes: 64, Ways: 4})
	for addr := uint64(0); addr < 1<<20; addr += 4 {
		c.Access(addr)
	}
	got := c.MissRate()
	if got < 0.05 || got > 0.08 {
		t.Fatalf("streaming miss rate %v, want ≈1/16", got)
	}
}

func TestCacheBadConfigPanics(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{SizeBytes: 1024, LineBytes: 60, Ways: 2}, // non-pow2 line
		{SizeBytes: 1024, LineBytes: 64, Ways: 3}, // lines not divisible
		{SizeBytes: 1 << 10, LineBytes: 64, Ways: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v: expected panic", cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func TestSimulateHashSpGEMMSmallMatrixStaysResident(t *testing.T) {
	// A tiny working set must be nearly all hits after warmup: spill ≈ 0.
	rng := rand.New(rand.NewSource(501))
	a := matrix.RandomWithDegree(200, 200, 8, rng)
	st := SimulateHashSpGEMM(a, a, KNLTileL2, 0)
	if st.SampledRows == 0 || st.AccAccesses == 0 {
		t.Fatalf("nothing simulated: %+v", st)
	}
	if spill := st.AccumulatorSpill(); spill > 0.1 {
		t.Fatalf("small-matrix accumulator spill %v, want ≈0", spill)
	}
	if miss := st.BMissRate(); miss > 0.2 {
		t.Fatalf("small-matrix B miss rate %v, want low", miss)
	}
}

func TestSimulateHashSpGEMMLargeMatrixMisses(t *testing.T) {
	// B far exceeding the cache: B reads must miss substantially more than
	// in the small case.
	rng := rand.New(rand.NewSource(502))
	small := matrix.RandomWithDegree(200, 200, 8, rng)
	big := gen.RMAT(14, 8, gen.ERParams, rng)
	sSmall := SimulateHashSpGEMM(small, small, KNLTileL2, 1<<20)
	sBig := SimulateHashSpGEMM(big, big, KNLTileL2, 1<<20)
	if sBig.BMissRate() <= sSmall.BMissRate() {
		t.Fatalf("big-matrix B miss rate %v not above small %v", sBig.BMissRate(), sSmall.BMissRate())
	}
}

func TestSimStatsDegenerate(t *testing.T) {
	var s SimStats
	if s.AccumulatorSpill() != 0 || s.BMissRate() != 0 {
		t.Fatal("zero-access stats must report zero rates")
	}
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	if c.MissRate() != 0 {
		t.Fatal("fresh cache must report zero miss rate")
	}
}

func TestSimulateRespectsFlopBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	a := gen.RMAT(12, 16, gen.G500Params, rng)
	st := SimulateHashSpGEMM(a, a, KNLTileL2, 10_000)
	if st.AccAccesses > 3*10_000 {
		t.Fatalf("replayed %d products, budget 10k (stride sampling broken)", st.AccAccesses)
	}
	if st.SampledRows >= a.Rows {
		t.Fatal("expected stride sampling to skip rows")
	}
}
