package server

import (
	"slices"
	"testing"

	"repro/internal/obs"
)

// testLRU is an lru over gauges and an eviction counter of its own, so a
// test reads what this cache alone reported.
type testLRU struct{ *lru[string, int] }

func newTestLRU(maxEntries int, maxBytes int64) testLRU {
	return testLRU{newLRU[string, int](maxEntries, maxBytes, new(obs.Gauge), new(obs.Gauge), new(obs.Counter))}
}

// check holds the cache to its keys, most recently used first, its byte sum
// and its eviction count, and the gauges to the cache.
func (c testLRU) check(t *testing.T, step string, keys []string, bytes, evictions int64) {
	t.Helper()
	var got []string
	for e := c.order.Front(); e != nil; e = e.Next() {
		got = append(got, e.Value.(*lruEntry[string, int]).key)
	}
	if !slices.Equal(got, keys) || len(c.byKey) != len(keys) {
		t.Errorf("%s: keys %v (map %d), want %v", step, got, len(c.byKey), keys)
	}
	if c.Len() != len(keys) || c.Bytes() != bytes {
		t.Errorf("%s: Len %d, Bytes %d; want %d, %d", step, c.Len(), c.Bytes(), len(keys), bytes)
	}
	if c.entriesGauge.Value() != int64(len(keys)) || c.bytesGauge.Value() != bytes || c.evictions.Value() != evictions {
		t.Errorf("%s: gauges %d entries, %d bytes, %d evictions; want %d, %d, %d",
			step, c.entriesGauge.Value(), c.bytesGauge.Value(), c.evictions.Value(), len(keys), bytes, evictions)
	}
}

func (c testLRU) mustAdd(t *testing.T, k string, v int, bytes int64, wantPresent bool, wantEvicted ...string) {
	t.Helper()
	present, evicted := c.lru.add(k, v, bytes)
	if present != wantPresent || !slices.Equal(evicted, wantEvicted) {
		t.Errorf("add %s: present %v, evicted %v; want %v, %v", k, present, evicted, wantPresent, wantEvicted)
	}
}

func TestLRUCountBound(t *testing.T) {
	c := newTestLRU(2, 0)
	c.mustAdd(t, "a", 1, 10, false)
	c.mustAdd(t, "b", 2, 20, false)
	c.check(t, "two added", []string{"b", "a"}, 30, 0)
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("get a = %d, %v", v, ok)
	}
	c.check(t, "a read", []string{"a", "b"}, 30, 0)
	c.mustAdd(t, "c", 3, 30, false, "b")
	c.check(t, "past the count", []string{"c", "a"}, 40, 1)
	if _, ok := c.get("b"); ok {
		t.Fatal("the evicted b is still cached")
	}
	c.check(t, "b missed", []string{"c", "a"}, 40, 1)
}

func TestLRUByteBound(t *testing.T) {
	c := newTestLRU(0, 100)
	c.mustAdd(t, "a", 1, 40, false)
	c.mustAdd(t, "b", 2, 40, false)
	c.mustAdd(t, "c", 3, 40, false, "a")
	c.check(t, "past the bytes", []string{"c", "b"}, 80, 1)
	// An entry past the whole budget evicts every other, and survives its
	// own add: its caller is about to use it.
	c.mustAdd(t, "big", 4, 500, false, "b", "c")
	c.check(t, "oversized", []string{"big"}, 500, 3)
	c.mustAdd(t, "d", 5, 1, false, "big")
	c.check(t, "after oversized", []string{"d"}, 1, 4)
}

func TestLRUAddKeepsFirst(t *testing.T) {
	c := newTestLRU(0, 100)
	c.mustAdd(t, "a", 1, 40, false)
	c.mustAdd(t, "b", 2, 40, false)
	// Re-adding a with other bytes keeps its first value and bytes, bumps its
	// recency, and evicts nothing though the new bytes would pass the budget.
	c.mustAdd(t, "a", 9, 90, true)
	c.check(t, "re-added", []string{"a", "b"}, 80, 0)
	if v, _ := c.get("a"); v != 1 {
		t.Fatalf("get a = %d after re-adding, want the first value 1", v)
	}
	// So b, not a, is the cold end.
	c.mustAdd(t, "c", 3, 40, false, "b")
	c.check(t, "after re-add", []string{"c", "a"}, 80, 1)
}

func TestLRURemoveIf(t *testing.T) {
	c := newTestLRU(0, 0)
	for i, k := range []string{"x1", "y1", "x2", "y2"} {
		c.mustAdd(t, k, i, int64(i+1), false)
	}
	c.check(t, "unbounded", []string{"y2", "x2", "y1", "x1"}, 10, 0)
	c.removeIf(func(k string) bool { return k[0] == 'x' })
	c.check(t, "x removed", []string{"y2", "y1"}, 6, 2)
	c.removeIf(func(string) bool { return false })
	c.check(t, "nothing removed", []string{"y2", "y1"}, 6, 2)
}
