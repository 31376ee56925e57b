package server

import "repro/internal/spgemm"

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

// PlanCache is the concurrent cache of inspector results, an lru bounded by
// entry count and, when the server builds it, by the sum of its Plans' Bytes
// too. Cached Plans are immutable after construction but for the replay map
// a Plan publishes atomically on its first cache hit (their mutable
// execution state is supplied per call via Plan.ExecuteIn), so a single Plan
// may be handed to any number of concurrent requests.
type PlanCache struct {
	*lru[PlanKey, *spgemm.Plan]
}

// NewPlanCache returns a cache holding at most capacity Plans (minimum 1),
// whatever their size.
func NewPlanCache(capacity int) *PlanCache { return newPlanCache(capacity, 0) }

// newPlanCache is NewPlanCache also bounded at maxBytes of Plan.Bytes — a
// Plan's inspection plus its replay map, four bytes per multiply-add of the
// product (0 = no byte bound).
func newPlanCache(capacity int, maxBytes int64) *PlanCache {
	return &PlanCache{newLRU[PlanKey, *spgemm.Plan](max(capacity, 1), maxBytes, mPlanEntries, mPlanBytes, mPlanEvictions)}
}

// Get returns the cached Plan for k, bumping its recency.
func (c *PlanCache) Get(k PlanKey) (*spgemm.Plan, bool) { return c.get(k) }

// Add caches a freshly built Plan, evicting least-recently-used Plans past
// either bound — never the one just added, which its request is about to
// execute anyway. Two requests racing a miss may both build and Add the same
// key; the first Add wins and the loser's Plan is simply garbage — correct
// either way, and cheaper than holding a lock across an inspector run.
func (c *PlanCache) Add(k PlanKey, p *spgemm.Plan) { c.add(k, p, p.Bytes()) }

// Remove drops the entry for k, if cached.
func (c *PlanCache) Remove(k PlanKey) { c.removeIf(func(o PlanKey) bool { return o == k }) }

// InvalidateMatrix drops every Plan that references the given matrix hash
// as either operand — called when the matrix store evicts it, so dead
// matrices do not stay pinned by their plans.
func (c *PlanCache) InvalidateMatrix(hash string) {
	c.removeIf(func(k PlanKey) bool { return k.A == hash || k.B == hash })
}
