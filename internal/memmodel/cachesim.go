package memmodel

import (
	"fmt"

	"repro/internal/matrix"
)

// This file provides a small set-associative LRU cache simulator and a
// replay of the hash-SpGEMM access pattern through it. Its purpose is to
// ground the two-tier MCDRAM model of Figure 10 in simulated cache behaviour
// instead of a hand-calibrated constant: the fraction of accumulator updates
// and B-row reads that actually reach memory is whatever the simulated cache
// says, for the actual matrix being multiplied.

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	Ways      int // associativity
}

// KNLTileL2 approximates one KNL tile's 1 MiB 16-way L2 (two cores share a
// tile; a single-threaded replay sees the full megabyte).
var KNLTileL2 = CacheConfig{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16}

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	sets      [][]uint64 // tags per set, index 0 = most recently used
	setMask   uint64
	lineShift uint
	hits      int64
	misses    int64
}

// NewCache builds a cache; it panics on non-power-of-two geometry since that
// indicates a configuration bug, not a runtime condition.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("memmodel: line size %d not a power of two", cfg.LineBytes))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if cfg.Ways <= 0 || lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("memmodel: %d lines not divisible by %d ways", lines, cfg.Ways))
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("memmodel: %d sets not a power of two", nsets))
	}
	c := &Cache{
		sets:    make([][]uint64, nsets),
		setMask: uint64(nsets - 1),
	}
	for i := range c.sets {
		c.sets[i] = make([]uint64, 0, cfg.Ways)
	}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lineShift++
	}
	return c
}

// Access touches addr and reports whether it hit. Misses fill the line,
// evicting the LRU way if the set is full.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := c.sets[line&c.setMask]
	for i, tag := range set {
		if tag == line {
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = line
			c.hits++
			return true
		}
	}
	c.misses++
	if len(set) < cap(set) {
		set = set[:len(set)+1]
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[line&c.setMask] = set
	return false
}

// Hits and Misses report the access counts so far.
func (c *Cache) Hits() int64   { return c.hits }
func (c *Cache) Misses() int64 { return c.misses }

// MissRate returns misses / accesses (0 if nothing was accessed).
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// SimStats is the outcome of replaying a SpGEMM through the cache:
// per-category access and miss counts.
type SimStats struct {
	BAccesses, BMisses     int64 // B column/value reads (stanza traffic)
	AccAccesses, AccMisses int64 // accumulator (hash table / heap) updates
	AAccesses, AMisses     int64 // A row reads (streaming)
	SampledRows            int   // rows actually replayed
}

// AccumulatorSpill is the fraction of accumulator updates that reached
// memory — the quantity the analytic model needs.
func (s SimStats) AccumulatorSpill() float64 {
	if s.AccAccesses == 0 {
		return 0
	}
	return float64(s.AccMisses) / float64(s.AccAccesses)
}

// BMissRate is the fraction of B-row element reads that missed.
func (s SimStats) BMissRate() float64 {
	if s.BAccesses == 0 {
		return 0
	}
	return float64(s.BMisses) / float64(s.BAccesses)
}

// SimulateHashSpGEMM replays the numeric phase of the hash SpGEMM for A·B
// through a cache of the given configuration and returns the per-category
// statistics. At most maxFlop intermediate products are replayed (rows are
// stride-sampled); 0 means 2M products.
//
// The address space is laid out like the real implementation: A's index and
// value arrays, B's row pointers, indices and values, and one thread-private
// hash table sized per the Figure 7 rule. Hash slots are computed with the
// same multiplicative hash as the real accumulator (probing on collision is
// ignored — second-order for cache behaviour).
func SimulateHashSpGEMM(a, b *matrix.CSR, cfg CacheConfig, maxFlop int64) SimStats {
	if maxFlop <= 0 {
		maxFlop = 2 << 20
	}
	cache := NewCache(cfg)

	// Synthetic address space (byte addresses).
	const (
		baseACols = uint64(0)
		gap       = uint64(1) << 40 // keep regions far apart
	)
	baseAVals := baseACols + gap
	baseBPtr := baseAVals + gap
	baseBCols := baseBPtr + gap
	baseBVals := baseBCols + gap
	baseTable := baseBVals + gap

	// Hash table size: max per-row flop, capped at Cols, next pow2.
	_, flopRow := matrix.Flop(a, b)
	var maxRowFlop int64
	var total int64
	for _, f := range flopRow {
		if f > maxRowFlop {
			maxRowFlop = f
		}
		total += f
	}
	if maxRowFlop > int64(b.Cols) {
		maxRowFlop = int64(b.Cols)
	}
	tsize := int64(1)
	for tsize <= maxRowFlop {
		tsize <<= 1
	}
	mask := uint32(tsize - 1)

	// Stride-sample rows so the replay covers the whole matrix.
	stride := 1
	if total > maxFlop {
		stride = int(total / maxFlop)
		if stride < 1 {
			stride = 1
		}
	}

	var st SimStats
	var replayed int64
	for i := 0; i < a.Rows && replayed < maxFlop; i += stride {
		st.SampledRows++
		alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
		for p := alo; p < ahi && replayed < maxFlop; p++ {
			// Read a_ik (index + value).
			if !cache.Access(baseACols + uint64(p)*4) {
				st.AMisses++
			}
			st.AAccesses++
			if !cache.Access(baseAVals + uint64(p)*8) {
				st.AMisses++
			}
			st.AAccesses++

			k := a.ColIdx[p]
			// Row pointer lookup.
			if !cache.Access(baseBPtr + uint64(k)*8) {
				st.AMisses++
			}
			st.AAccesses++

			blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
			for q := blo; q < bhi; q++ {
				// Read b_kj (index + value): the stanza pattern.
				if !cache.Access(baseBCols + uint64(q)*4) {
					st.BMisses++
				}
				st.BAccesses++
				if !cache.Access(baseBVals + uint64(q)*8) {
					st.BMisses++
				}
				st.BAccesses++
				// Accumulator update at the hashed slot (12 B entry).
				slot := (uint32(b.ColIdx[q]) * 0x9E3779B1) & mask
				if !cache.Access(baseTable + uint64(slot)*12) {
					st.AccMisses++
				}
				st.AccAccesses++
				replayed++
			}
		}
	}
	return st
}
