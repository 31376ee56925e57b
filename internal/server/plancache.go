package server

import (
	"container/list"
	"sync"

	"repro/internal/spgemm"
)

// PlanKey identifies a cached Plan: the content hashes of both operands
// (which, being hashes of the full wire encoding, fingerprint the exact
// structure the plan was inspected against) plus the execution options
// that change what the inspector computes. Interned matrices are
// immutable, so a key can never silently come to mean a different product;
// Plan.ExecuteIn still revalidates the structure fingerprints as a second
// line of defense.
type PlanKey struct {
	A, B      string
	Algorithm spgemm.Algorithm
	Unsorted  bool
	Workers   int
}

// PlanCache is the concurrent LRU cache of inspector results. Cached Plans
// are immutable after construction but for the replay map a Plan publishes
// atomically on its first cache hit (their mutable execution state is
// supplied per-call via Plan.ExecuteIn), so a single Plan may be handed to
// any number of concurrent requests; the lock only guards the map and
// recency list, never execution. The cache is bounded by entry count and,
// after SetMaxBytes, by the sum of its Plans' Bytes as well.
type PlanCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64 // 0 = count-bounded only
	bytes    int64
	byKey    map[PlanKey]*planEntry
	lru      *list.List // front = most recently used
}

type planEntry struct {
	key   PlanKey
	plan  *spgemm.Plan
	bytes int64
	elem  *list.Element
}

// NewPlanCache returns a cache holding at most capacity Plans (minimum 1),
// whatever their size.
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		cap:   capacity,
		byKey: map[PlanKey]*planEntry{},
		lru:   list.New(),
	}
}

// SetMaxBytes additionally bounds the cache at n bytes of Plan.Bytes — a
// Plan's inspection plus its replay map, four bytes per multiply-add of the
// product — evicting least-recently-used Plans past it (0 = no byte bound).
// Call before the first Add.
func (c *PlanCache) SetMaxBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = n
}

// Get returns the cached Plan for k, bumping its recency.
func (c *PlanCache) Get(k PlanKey) (*spgemm.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[k]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	return e.plan, true
}

// Add inserts a freshly built Plan, evicting least-recently-used entries
// past the capacity or the byte budget — never the Plan just inserted, which
// its request is about to execute anyway. Two requests racing a miss may
// both build and Add the same key; the later Add wins and the loser's Plan
// is simply garbage — correct either way, and cheaper than holding a lock
// across an inspector run.
func (c *PlanCache) Add(k PlanKey, p *spgemm.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[k]; ok {
		c.removeLocked(e)
	}
	e := &planEntry{key: k, plan: p, bytes: p.Bytes()}
	e.elem = c.lru.PushFront(e)
	c.byKey[k] = e
	c.bytes += e.bytes
	for c.lru.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 1) {
		c.removeLocked(c.lru.Back().Value.(*planEntry))
		mPlanEvictions.Inc()
	}
	c.updateGaugesLocked()
}

// Remove drops the entry for k, if cached.
func (c *PlanCache) Remove(k PlanKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[k]; ok {
		c.removeLocked(e)
		mPlanEvictions.Inc()
		c.updateGaugesLocked()
	}
}

// InvalidateMatrix drops every Plan that references the given matrix hash
// as either operand — called when the matrix store evicts it, so dead
// matrices do not stay pinned by their plans.
func (c *PlanCache) InvalidateMatrix(hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.byKey {
		if k.A == hash || k.B == hash {
			c.removeLocked(e)
			mPlanEvictions.Inc()
		}
	}
	c.updateGaugesLocked()
}

// Len returns the number of cached Plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the sum of the cached Plans' Bytes.
func (c *PlanCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

func (c *PlanCache) removeLocked(e *planEntry) {
	c.lru.Remove(e.elem)
	delete(c.byKey, e.key)
	c.bytes -= e.bytes
}

func (c *PlanCache) updateGaugesLocked() {
	mPlanEntries.Set(int64(c.lru.Len()))
	mPlanBytes.Set(c.bytes)
}
