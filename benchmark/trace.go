package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/spgemm"
)

// span is one timed call into a layer. Parent is the index of the span that
// caused it (-1 for an operation's root span); spans of one operation share
// Op. Lane is the client that issued the operation, so concurrent clients
// land on separate tracks in the trace viewer.
type span struct {
	Name       string
	Parent     int
	Op, Lane   int
	Start, End time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. The benchmark records
// them around its own calls into each layer; nothing inside the program
// under test knows it exists. A nil recorder (tracing off) records nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// opTrace is the handle one traced operation records its children through.
// All methods are no-ops on a nil handle, so workload code calls them
// unconditionally.
type opTrace struct {
	rec      *recorder
	root     int
	op, lane int
}

// begin opens the root span of operation op.
func (r *recorder) begin(op, lane int, name string, start time.Time) *opTrace {
	if r == nil {
		return nil
	}
	id := r.add(span{Name: name, Parent: -1, Op: op, Lane: lane, Start: start.Sub(r.epoch)})
	return &opTrace{rec: r, root: id, op: op, lane: lane}
}

func (t *opTrace) end(at time.Time) {
	if t == nil {
		return
	}
	t.rec.mu.Lock()
	t.rec.spans[t.root].End = at.Sub(t.rec.epoch)
	t.rec.mu.Unlock()
}

// child records a finished span under parent (the root when parent < 0) and
// returns its id for grandchildren.
func (t *opTrace) child(parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	if parent < 0 {
		parent = t.root
	}
	return t.rec.add(span{Name: name, Parent: parent, Op: t.op, Lane: t.lane,
		Start: start.Sub(t.rec.epoch), End: end.Sub(t.rec.epoch)})
}

// kernel records, under the root, a multiply that returned at end and
// reported st: the kernel span is the last st.Total before the return, and
// ExecStats.PhaseSpans lays its phases out inside it.
func (t *opTrace) kernel(end time.Time, st *spgemm.ExecStats) {
	if t == nil || st == nil || st.Total <= 0 {
		return
	}
	start := end.Add(-st.Total)
	k := t.child(-1, "spgemm.kernel:"+st.Algorithm.String(), start, end)
	for _, ps := range st.PhaseSpans() {
		s := start.Add(ps.Offset)
		t.child(k, "spgemm."+ps.Phase.String(), s, s.Add(ps.Dur))
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are counted once, and
// a child is clipped to its parent). Summed over the spans of one operation
// it gives back the root span's duration.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, edge time.Duration
		edge = s.Start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			covered += v.hi - max(v.lo, edge)
			edge = v.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name, as seconds per operation.
func selfByName(spans []span, ops int) map[string]float64 {
	out := make(map[string]float64)
	if ops == 0 {
		return out
	}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d.Seconds() / float64(ops)
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds), loadable in Perfetto or chrome://tracing.
func writeChrome(w io.Writer, spans []span) error {
	type args struct {
		Op     int     `json:"op"`
		Parent int     `json:"parent"`
		SelfUs float64 `json:"self_us"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Lane, Args: args{Op: s.Op, Parent: s.Parent, SelfUs: us(self[i])}}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
