package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scriptedTracer builds a small deterministic timeline: two phases on the
// driver lane and one region span per worker lane, the shape a two-worker
// hash SpGEMM produces.
func scriptedTracer() *Tracer {
	tr := NewTracer()
	t0 := tr.start
	tr.Span(DriverLane, "partition", t0, t0.Add(time.Millisecond))
	tr.Span(1, "symbolic", t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	tr.Span(2, "symbolic", t0.Add(time.Millisecond), t0.Add(2*time.Millisecond))
	tr.Span(DriverLane, "symbolic", t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	return tr
}

// decodeTrace parses exported Chrome trace JSON.
func decodeTrace(t *testing.T, data []byte) chromeTrace {
	t.Helper()
	var ct chromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	return ct
}

func TestChromeTraceSchemaAndGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := scriptedTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	ct := decodeTrace(t, buf.Bytes())
	if ct.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", ct.DisplayTimeUnit)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	validateTrace(t, ct)

	// Golden comparison on everything but the wall-clock timestamps: ts is
	// replaced with the event's per-lane ordinal, which the monotonicity
	// check above ties to the real order.
	ordinal := map[int]int{}
	for i := range ct.TraceEvents {
		e := &ct.TraceEvents[i]
		if e.Ph == "M" {
			e.TS = 0
			continue
		}
		e.TS = float64(ordinal[e.TID])
		ordinal[e.TID]++
	}
	got, err := json.MarshalIndent(&ct, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("normalized trace differs from golden file\n got: %s\nwant: %s", got, want)
	}
}

// validateTrace checks the structural contract of an exported trace: schema
// fields present, per-lane timestamps monotonically non-decreasing, and every
// B matched by an E of the same name in LIFO order.
func validateTrace(t *testing.T, ct chromeTrace) {
	t.Helper()
	lastTS := map[int]float64{}
	stacks := map[int][]string{}
	for i, e := range ct.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name != "thread_name" || e.Args["name"] == "" {
				t.Errorf("event %d: bad metadata event %+v", i, e)
			}
			continue
		case "B", "E":
		default:
			t.Errorf("event %d: unexpected phase %q", i, e.Ph)
			continue
		}
		if e.Name == "" || e.Cat == "" || e.PID != 1 {
			t.Errorf("event %d: missing schema fields: %+v", i, e)
		}
		if prev, ok := lastTS[e.TID]; ok && e.TS < prev {
			t.Errorf("event %d: ts %v < previous %v on tid %d (not monotonic)", i, e.TS, prev, e.TID)
		}
		lastTS[e.TID] = e.TS
		if e.Ph == "B" {
			stacks[e.TID] = append(stacks[e.TID], e.Name)
		} else {
			st := stacks[e.TID]
			if len(st) == 0 {
				t.Errorf("event %d: E %q on tid %d without open B", i, e.Name, e.TID)
				continue
			}
			if st[len(st)-1] != e.Name {
				t.Errorf("event %d: E %q closes B %q on tid %d", i, e.Name, st[len(st)-1], e.TID)
			}
			stacks[e.TID] = st[:len(st)-1]
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Errorf("tid %d: %d unmatched B events: %v", tid, len(st), st)
		}
	}
}

func TestImbalance(t *testing.T) {
	tr := NewTracer()
	t0 := tr.start
	// Worker 0 busy 4ms in two regions, worker 1 busy 2ms in one; the driver
	// lane's phase span covers both and is not a worker.
	tr.Span(DriverLane, "numeric", t0, t0.Add(5*time.Millisecond))
	tr.Span(1, "symbolic", t0, t0.Add(3*time.Millisecond))
	tr.Span(1, "numeric", t0.Add(3*time.Millisecond), t0.Add(4*time.Millisecond))
	tr.Span(2, "numeric", t0, t0.Add(2*time.Millisecond))

	im := tr.Imbalance()
	if len(im.Workers) != 2 {
		t.Fatalf("got %d workers, want 2", len(im.Workers))
	}
	w0, w1 := im.Workers[0], im.Workers[1]
	if w0.Worker != 0 || w1.Worker != 1 {
		t.Fatalf("worker ids = %d,%d", w0.Worker, w1.Worker)
	}
	if w0.Busy != 4*time.Millisecond || w0.Spans != 2 {
		t.Errorf("worker 0 = %+v, want busy 4ms / 2 spans", w0)
	}
	if w1.Busy != 2*time.Millisecond || w1.Spans != 1 {
		t.Errorf("worker 1 = %+v, want busy 2ms / 1 span", w1)
	}
	if r := im.Ratio(); r != 4.0/3 {
		t.Errorf("ratio = %v, want max 4ms over mean 3ms", r)
	}
	if im.Report() == "" {
		t.Error("empty report")
	}

	// Sub against itself zeroes the busy time.
	if d := im.Sub(im); d.Ratio() != 1 {
		t.Errorf("self-delta ratio = %v, want 1", d.Ratio())
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lane := g%4 + 1 // overlap lanes across goroutines on purpose
				now := time.Now()
				tr.Span(lane, "work", now, now)
			}
		}(g)
	}
	// Concurrent export must not race with appends.
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Error(err)
		}
		_ = tr.Imbalance()
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	ct := decodeTrace(t, buf.Bytes())
	n := 0
	for _, e := range ct.TraceEvents {
		if e.Ph != "M" {
			n++
		}
	}
	if want := 8 * 200 * 2; n != want {
		t.Errorf("got %d events, want %d", n, want)
	}
}

func TestActiveTracer(t *testing.T) {
	if Active() != nil {
		t.Fatal("tracer active at test start")
	}
	tr := NewTracer()
	SetActive(tr)
	if Active() != tr {
		t.Error("SetActive did not install the tracer")
	}
	SetActive(nil)
	if Active() != nil {
		t.Error("SetActive(nil) did not disable tracing")
	}
}
