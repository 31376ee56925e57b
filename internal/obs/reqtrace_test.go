package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRequestTraceSpansAndChromeExport(t *testing.T) {
	rt := &RequestTrace{ID: "r-1", Start: time.Now(), Status: 200, TotalMs: 10,
		Attrs: map[string]any{"alg": "hash", "flop": int64(1234)}}
	rt.SpanAt("queue.wait", 0, 2*time.Millisecond)
	rt.SpanAt("ctx.checkout", 2*time.Millisecond, time.Millisecond)
	rt.SpanAt("kernel.numeric", 3*time.Millisecond, 5*time.Millisecond)
	if len(rt.Spans) != 3 || rt.Spans[1].StartMs != 2 || rt.Spans[1].DurMs != 1 {
		t.Fatalf("SpanAt recorded %+v", rt.Spans)
	}

	var buf bytes.Buffer
	if err := rt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	// thread_name meta + root request span + 3 recorded spans.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("trace has %d events, want 5", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for i, e := range doc.TraceEvents {
		byName[e.Name] = i
	}
	root := doc.TraceEvents[byName["request"]]
	if root.Ph != "X" || root.Args["id"] != "r-1" || root.Args["alg"] != "hash" {
		t.Fatalf("bad root span: %+v", root)
	}
	kn := doc.TraceEvents[byName["kernel.numeric"]]
	if kn.TS != 3000 || kn.Dur != 5000 { // microseconds
		t.Fatalf("kernel.numeric ts/dur = %v/%v, want 3000/5000", kn.TS, kn.Dur)
	}
	// Every span nests inside the root window — what makes the export read
	// as one request in Perfetto.
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Name == "request" {
			continue
		}
		if e.TS < 0 || e.TS+e.Dur > root.Dur+1 {
			t.Errorf("span %s [%v,%v] escapes root window %v", e.Name, e.TS, e.TS+e.Dur, root.Dur)
		}
	}
}

func TestRequestRingBoundedNewestFirst(t *testing.T) {
	r := NewRequestRing(3)
	for i := 0; i < 5; i++ {
		r.Add(&RequestTrace{ID: fmt.Sprintf("r-%d", i), Status: 200})
	}
	if r.Len() != 3 {
		t.Fatalf("ring len %d, want 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", r.Dropped())
	}
	snap := r.Snapshot()
	want := []string{"r-4", "r-3", "r-2"}
	for i, id := range want {
		if snap[i].ID != id {
			t.Fatalf("snapshot[%d] = %s, want %s", i, snap[i].ID, id)
		}
	}
	if _, ok := r.Get("r-3"); !ok {
		t.Fatal("r-3 missing")
	}
	if _, ok := r.Get("r-0"); ok {
		t.Fatal("r-0 should have been displaced")
	}
}

// TestRequestRingConcurrent is the -race proof of the publication contract:
// many writers Add completed traces while readers Snapshot and Get.
func TestRequestRingConcurrent(t *testing.T) {
	r := NewRequestRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rt := &RequestTrace{ID: fmt.Sprintf("g%d-%d", g, i), Status: 200}
				rt.SpanAt("work", 0, time.Microsecond)
				r.Add(rt)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		for _, rt := range r.Snapshot() {
			if len(rt.Spans) != 1 {
				t.Errorf("trace %s published with %d spans, want 1", rt.ID, len(rt.Spans))
			}
		}
		r.Get("g0-0")
	}
	wg.Wait()
	if r.Len() != 16 {
		t.Fatalf("ring len %d, want 16", r.Len())
	}
}
