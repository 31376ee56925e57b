package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// DriverLane is the lane kernel drivers stamp their sequential phase spans
// onto. Worker w of a parallel region records on lane w+1, so the driver
// timeline never interleaves with worker timelines even though worker 0 runs
// on the driver goroutine.
const DriverLane = 0

// span is one closed interval on a lane.
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer started
}

// lane is one append-only per-worker span buffer. Each lane has its own
// mutex: within one kernel a lane is only touched by its own worker, but the
// pool is shared, so concurrent kernels may land on the same lane index.
type lane struct {
	mu    sync.Mutex
	spans []span
}

// Tracer records spans on per-worker lanes and exports them as begin/end
// pairs of Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// A Tracer is safe for concurrent use. It is enabled by installing it
// process-wide with SetActive; disabled code paths never reach a Tracer
// method (see the package contract).
type Tracer struct {
	start time.Time
	mu    sync.RWMutex
	lanes []*lane
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// lane returns lane i, growing the lane table on first touch.
func (t *Tracer) lane(i int) *lane {
	if i < 0 {
		i = 0
	}
	t.mu.RLock()
	if i < len(t.lanes) {
		l := t.lanes[i]
		t.mu.RUnlock()
		return l
	}
	t.mu.RUnlock()
	t.mu.Lock()
	for len(t.lanes) <= i {
		t.lanes = append(t.lanes, &lane{})
	}
	l := t.lanes[i]
	t.mu.Unlock()
	return l
}

// Span records an already-measured [start, end] interval on the lane — the
// only way onto a lane, so there is no begin mark to leave unmatched.
// Sequential drivers that already
// read the clock at phase boundaries (spgemm's phaseTimer) pass those reads;
// sched.Pool's parallel regions time each worker's body around the call.
func (t *Tracer) Span(laneID int, name string, start, end time.Time) {
	l := t.lane(laneID)
	sp := span{name: name, start: start.Sub(t.start).Nanoseconds(), end: end.Sub(t.start).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

// snapshot copies every lane's spans under their locks.
func (t *Tracer) snapshot() [][]span {
	t.mu.RLock()
	lanes := make([]*lane, len(t.lanes))
	copy(lanes, t.lanes)
	t.mu.RUnlock()
	out := make([][]span, len(lanes))
	for i, l := range lanes {
		l.mu.Lock()
		out[i] = append([]span(nil), l.spans...)
		l.mu.Unlock()
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event JSON array. ts is in
// microseconds, per the trace-event format specification.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"` // complete ("X") events only
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// laneName returns the human-readable thread name of a lane.
func laneName(laneID int) string {
	if laneID == DriverLane {
		return "driver"
	}
	return fmt.Sprintf("worker %d", laneID-1)
}

// WriteChromeTrace writes the recorded timeline as Chrome trace-event JSON.
// Lane i is emitted as thread id i of process 1, with a thread_name metadata
// event ("driver" for lane 0, "worker N" otherwise), so Perfetto shows one
// named track per worker.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	lanes := t.snapshot()
	var out chromeTrace
	out.DisplayTimeUnit = "ms"
	for id := range lanes {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]any{"name": laneName(id)},
		})
	}
	for id, spans := range lanes {
		for _, sp := range spans {
			ev := chromeEvent{Name: sp.name, Cat: "spgemm", Ph: "B", TS: float64(sp.start) / 1e3, PID: 1, TID: id}
			out.TraceEvents = append(out.TraceEvents, ev)
			ev.Ph, ev.TS = "E", float64(sp.end)/1e3
			out.TraceEvents = append(out.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// WorkerBusy is one worker's total busy time on its lane.
type WorkerBusy struct {
	Worker int
	Busy   time.Duration
	Spans  int // spans summed into Busy
}

// Imbalance is a per-worker busy-time reduction of a trace — the plain-text
// counterpart of eyeballing lane lengths in Perfetto, and the quantitative
// check of the paper's Figure 6 flop-balanced scheduling claim.
type Imbalance struct {
	Workers []WorkerBusy
}

// Imbalance sums, for every worker lane, the durations of its spans. Worker
// lanes are written by sched.Pool's parallel regions alone, one span per
// worker per region, and a worker body does not open a region of its own, so
// the spans of a lane do not nest and the sum counts no time twice. The
// driver lane is excluded: phase spans there cover all workers' time.
func (t *Tracer) Imbalance() Imbalance {
	lanes := t.snapshot()
	var im Imbalance
	for id := 1; id < len(lanes); id++ {
		wb := WorkerBusy{Worker: id - 1, Spans: len(lanes[id])}
		for _, sp := range lanes[id] {
			wb.Busy += time.Duration(sp.end - sp.start)
		}
		im.Workers = append(im.Workers, wb)
	}
	return im
}

// Sub returns the per-worker busy time accrued since prev was captured from
// the same tracer. Workers present only in the receiver keep their values.
func (im Imbalance) Sub(prev Imbalance) Imbalance {
	busyBefore := make(map[int]WorkerBusy, len(prev.Workers))
	for _, wb := range prev.Workers {
		busyBefore[wb.Worker] = wb
	}
	out := Imbalance{Workers: make([]WorkerBusy, 0, len(im.Workers))}
	for _, wb := range im.Workers {
		b := busyBefore[wb.Worker]
		out.Workers = append(out.Workers, WorkerBusy{
			Worker: wb.Worker,
			Busy:   wb.Busy - b.Busy,
			Spans:  wb.Spans - b.Spans,
		})
	}
	return out
}

// active returns the workers that recorded at least one span.
func (im Imbalance) active() []WorkerBusy {
	var out []WorkerBusy
	for _, wb := range im.Workers {
		if wb.Spans > 0 {
			out = append(out, wb)
		}
	}
	return out
}

// MaxMean returns the maximum and mean busy time over workers that recorded
// at least one span. Both are zero when no worker did.
func (im Imbalance) MaxMean() (max, mean time.Duration) {
	act := im.active()
	if len(act) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, wb := range act {
		sum += wb.Busy
		if wb.Busy > max {
			max = wb.Busy
		}
	}
	return max, sum / time.Duration(len(act))
}

// Ratio returns max busy time over mean busy time — 1.0 is perfect balance,
// and the value the flop-balanced partition is supposed to keep near 1.0
// where naive static scheduling does not. Returns 1 when no spans were
// recorded.
func (im Imbalance) Ratio() float64 {
	max, mean := im.MaxMean()
	if mean == 0 {
		return 1
	}
	return float64(max) / float64(mean)
}

// Report renders the per-worker busy table with the max/mean summary line.
func (im Imbalance) Report() string {
	var b strings.Builder
	act := im.active()
	sort.Slice(act, func(i, j int) bool { return act[i].Worker < act[j].Worker })
	max, mean := im.MaxMean()
	for _, wb := range act {
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", int(40*wb.Busy/max))
		}
		fmt.Fprintf(&b, "worker %2d busy %12v spans %4d %s\n", wb.Worker, wb.Busy, wb.Spans, bar)
	}
	fmt.Fprintf(&b, "workers %d  max %v  mean %v  max/mean %.2f\n", len(act), max, mean, im.Ratio())
	return b.String()
}
