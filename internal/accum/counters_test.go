package accum

import "testing"

// TestMergeHeapPushCounter verifies the cumulative push counter feeding the
// HeapPushes ExecStats field.
func TestMergeHeapPushCounter(t *testing.T) {
	h := NewMergeHeap(4)
	if h.Pushes() != 0 {
		t.Fatalf("fresh heap pushes = %d", h.Pushes())
	}
	h.Push(3, 1.0, 0, 2)
	h.Push(1, 2.0, 0, 2)
	if h.Pushes() != 2 {
		t.Fatalf("pushes = %d, want 2", h.Pushes())
	}
	h.Reset()
	h.Push(5, 1.0, 0, 1)
	if h.Pushes() != 3 {
		t.Fatalf("pushes must be cumulative across Reset: %d, want 3", h.Pushes())
	}
}

// TestHashTableOperationCounters pins the Lookups/Probes contract the
// ExecStats collision factor is built on: lookups count operations, probes
// count extra slot visits beyond the first.
func TestHashTableOperationCounters(t *testing.T) {
	h := NewHashTable(64)
	base := h.Lookups()
	plusAcc(h, 1, 1)
	plusAcc(h, 1, 1) // same key: still one op each
	h.InsertSymbolic(2)
	if got := h.Lookups() - base; got != 3 {
		t.Fatalf("lookups delta = %d, want 3", got)
	}
	if h.Probes() < 0 {
		t.Fatalf("probes = %d", h.Probes())
	}
}
