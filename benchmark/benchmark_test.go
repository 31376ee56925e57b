package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/matrix"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // ten samples lie beyond the 90th
		{99, 0.90, 90, false},   // nine do
		{1000, 0.99, 990, true}, // p99 needs a thousand
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75].
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q3 != 5.75 {
		t.Errorf("quartiles = %v, %v; want 1.25, 5.75", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// A hand-built tree: the op spans 0..100; a kernel child covers 10..70 with
// phase children 10..30 and 30..60; an overlapping pair of siblings covers
// 70..90 between them; one child sticks out past its parent.
func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "op", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "kernel", Parent: 0, Start: ms(10), End: ms(70)},
		{Name: "symbolic", Parent: 1, Start: ms(10), End: ms(30)},
		{Name: "numeric", Parent: 1, Start: ms(30), End: ms(60)},
		{Name: "a", Parent: 0, Start: ms(70), End: ms(85)},
		{Name: "b", Parent: 0, Start: ms(80), End: ms(90)},
		{Name: "late", Parent: 0, Start: ms(95), End: ms(120)},
	}
	want := []time.Duration{ms(15), ms(10), ms(20), ms(30), ms(15), ms(10), ms(25)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	// Without overlap or overhang the self times of an op add up to its span.
	clean := spans[:4]
	var sum time.Duration
	for _, d := range selfTimes(clean) {
		sum += d
	}
	if sum != ms(100) {
		t.Errorf("self times sum to %v, want the op's 100ms", sum)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != len(spans) {
		t.Fatalf("trace does not load back: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_s_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 0.75, 1.25, 1.0}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"inside the bound", lower, steady, scale(steady, 1.08), "ok"},
		{"past the bound", lower, steady, scale(steady, 1.15), "regressed"},
		{"faster", lower, steady, scale(steady, 0.5), "ok"},
		{"throughput down", higher, steady, scale(steady, 0.85), "regressed"},
		{"throughput up", higher, steady, scale(steady, 1.5), "ok"},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.05), "unresolved"},
		{"noisy but every run better", lower, noisy, scale(noisy, 0.4), "ok"},
		{"noisy but every run worse", lower, noisy, scale(noisy, 3), "regressed"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSetsCountsFailuresAndRegressions(t *testing.T) {
	set := func(mean float64, failed int) []runResult {
		var runs []runResult
		for seed := int64(1); seed <= 10; seed++ {
			runs = append(runs, runResult{Workload: "triangle_lu", Seed: seed, Attempted: 100, Failed: failed,
				Metrics: map[string]metricValue{"op_s_mean": {Value: mean * (1 + float64(seed)/1000), Unit: "s"}}})
		}
		return runs
	}
	var out bytes.Buffer
	if n := compareSets(&out, set(1, 0), set(1, 0)); n != 0 {
		t.Errorf("identical sets: %d regressions\n%s", n, out.String())
	}
	if n := compareSets(&out, set(1, 0), set(1.5, 0)); n != 1 {
		t.Errorf("slower set: %d regressions, want 1", n)
	}
	out.Reset()
	if n := compareSets(&out, set(1, 0), set(1, 1)); n != 1 || !strings.Contains(out.String(), "failed_frac") {
		t.Errorf("any increase of the failed share must regress: %d\n%s", n, out.String())
	}
}

// BENCHMARK.json is what the driver and later issues read; the tables in
// metrics.go and workloads.go are what the code prints. They must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	sameTable := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i := range want {
			checkName(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, got[i], want[i])
			}
			if !unit.MatchString(got[i].Unit) || (got[i].Better != "lower" && got[i].Better != "higher") {
				t.Errorf("%s: malformed unit or direction in %+v", kind, got[i])
			}
		}
	}
	sameTable("end_to_end", doc.EndToEnd, endToEnd)
	sameTable("per_layer", doc.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if lookup(endToEnd, "setup_s") == nil {
		t.Error("setup_s must be an end-to-end metric")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
}

func TestOracles(t *testing.T) {
	// K4 plus a pendant vertex, with a duplicate direction and a self-loop.
	adj := matrix.NewCOO(5, 5)
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {1, 0}, {2, 2}} {
		adj.Append(e[0], e[1], 1)
	}
	if got := countTriangles(adj.ToCSR()); got != 4 {
		t.Errorf("countTriangles(K4 + pendant) = %d, want 4", got)
	}

	// A directed path 0→1→2 and an unreachable vertex 3.
	path := matrix.NewCOO(4, 4)
	path.Append(0, 1, 1)
	path.Append(1, 2, 1)
	level, depth := bfsLevels(path.ToCSR(), []int32{0, 2})
	want := [][]int32{{0, -1}, {1, -1}, {2, 0}, {-1, -1}}
	for v := range want {
		for s := range want[v] {
			if level[v][s] != want[v][s] {
				t.Errorf("level[%d][%d] = %d, want %d", v, s, level[v][s], want[v][s])
			}
		}
	}
	if depth != 2 {
		t.Errorf("depth = %d, want 2", depth)
	}

	// sameProduct accepts shuffled rows and rounding, rejects a wrong value,
	// a wrong column and a column stored twice, and leaves pos reusable.
	a := matrix.NewCOO(2, 4)
	a.Append(0, 0, 1)
	a.Append(0, 2, 2)
	a.Append(0, 3, 3)
	a.Append(1, 1, 4)
	ref := a.ToCSR()
	pos := newPos(4)
	mk := func(cols []int32, vals []float64) *matrix.CSR {
		return &matrix.CSR{Rows: 2, Cols: 4, RowPtr: []int64{0, 3, 4}, ColIdx: cols, Val: vals}
	}
	checks := []struct {
		name string
		m    *matrix.CSR
		want bool
	}{
		{"identical", ref, true},
		{"shuffled row", mk([]int32{3, 0, 2, 1}, []float64{3, 1, 2, 4}), true},
		{"rounding", mk([]int32{0, 2, 3, 1}, []float64{1, 2 + 1e-12, 3, 4}), true},
		{"wrong value", mk([]int32{0, 2, 3, 1}, []float64{1, 2.1, 3, 4}), false},
		{"wrong column", mk([]int32{0, 1, 3, 1}, []float64{1, 2, 3, 4}), false},
		{"column twice", mk([]int32{0, 0, 3, 1}, []float64{1, 2, 3, 4}), false},
		{"identical again", ref, true},
	}
	for _, c := range checks {
		if got := sameProduct(c.m, ref, pos); got != c.want {
			t.Errorf("sameProduct(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}
