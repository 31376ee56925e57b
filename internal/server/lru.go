package server

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// lru is the bounded least-recently-used cache behind both the matrix Store
// and the PlanCache. Every entry declares its bytes; the entry-count and byte
// bounds are fixed at construction (0 = unbounded). The cache keeps its two
// gauges and its eviction counter current. The lock guards the map and the
// recency list only, never what the values are used for.
type lru[K comparable, V any] struct {
	mu                       sync.Mutex
	maxEntries               int
	maxBytes, bytes          int64
	byKey                    map[K]*list.Element // each holds an *lruEntry[K, V]
	order                    *list.List          // front = most recently used
	entriesGauge, bytesGauge *obs.Gauge
	evictions                *obs.Counter
}

type lruEntry[K comparable, V any] struct {
	key   K
	val   V
	bytes int64
}

func newLRU[K comparable, V any](maxEntries int, maxBytes int64, entries, bytes *obs.Gauge, evictions *obs.Counter) *lru[K, V] {
	return &lru[K, V]{maxEntries: maxEntries, maxBytes: maxBytes, byKey: map[K]*list.Element{}, order: list.New(),
		entriesGauge: entries, bytesGauge: bytes, evictions: evictions}
}

// get returns the value cached under k, bumping its recency.
func (c *lru[K, V]) get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[k]; ok {
		c.order.MoveToFront(e)
		return e.Value.(*lruEntry[K, V]).val, true
	}
	return v, false
}

// add caches v, of the given bytes, under k and, past either bound, evicts
// least-recently-used entries, never k's, returning their keys. A present k
// keeps its first value and only has its recency bumped (present = true).
func (c *lru[K, V]) add(k K, v V, bytes int64) (present bool, evicted []K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[k]; ok {
		c.order.MoveToFront(e)
		return true, nil
	}
	c.byKey[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v, bytes: bytes})
	c.bytes += bytes
	for c.order.Len() > 1 && (c.maxEntries > 0 && c.order.Len() > c.maxEntries || c.maxBytes > 0 && c.bytes > c.maxBytes) {
		evicted = append(evicted, c.evictLocked(c.order.Back()))
	}
	c.setGaugesLocked()
	return false, evicted
}

// removeIf drops every entry whose key matches, counting each an eviction.
// match runs under the lock, so it must not call back into the cache.
func (c *lru[K, V]) removeIf(match func(K) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.byKey {
		if match(k) {
			c.evictLocked(e)
		}
	}
	c.setGaugesLocked()
}

// Len returns the number of cached entries.
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the sum of the cached entries' bytes.
func (c *lru[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

func (c *lru[K, V]) evictLocked(e *list.Element) K {
	en := c.order.Remove(e).(*lruEntry[K, V])
	delete(c.byKey, en.key)
	c.bytes -= en.bytes
	c.evictions.Inc()
	return en.key
}

func (c *lru[K, V]) setGaugesLocked() {
	c.entriesGauge.Set(int64(c.order.Len()))
	c.bytesGauge.Set(c.bytes)
}
