package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// exactCounters are per-layer counts that depend only on the inputs, so two
// traced runs of one seed must print the same value.
var exactCounters = []string{"spgemm.flop", "spgemm.nnz_c", "accum.hash_lookups", "graph.levels"}

// loadRuns reads a run set: one runResult per line, as -out appends them.
func loadRuns(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// verdict compares one end-to-end metric's readings on the baseline (a) and
// the candidate (b) against the metric's bound.
//
//   - regressed: b's median is worse than a's by more than the bound, and the
//     readings are steady enough (or separated enough) to believe it;
//   - unresolved: the run-to-run spread of either side is wider than the
//     bound, so a median inside it says nothing, unless every reading of b
//     is better than every reading of a;
//   - ok otherwise.
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worse := sign * (mb - ma) / ma
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter := sign*(sb[len(sb)-1]-sa[0]) < 0 && sign*(sb[0]-sa[len(sa)-1]) < 0
	allWorse := sign*(sb[0]-sa[len(sa)-1]) > 0 && sign*(sb[len(sb)-1]-sa[0]) > 0
	if max(spread(a), spread(b)) > d.Bound {
		switch {
		case allBetter:
			return "ok", worse
		case allWorse && worse > d.Bound:
			return "regressed", worse
		}
		return "unresolved", worse
	}
	if worse > d.Bound {
		return "regressed", worse
	}
	return "ok", worse
}

// compareSets applies the bounds to every (workload, end-to-end metric)
// pair, any increase in the failed share counting as a regression, and
// lists whether the exact counters of traced runs repeat. It returns the
// number of regressions.
func compareSets(w io.Writer, a, b []runResult) int {
	regressed := 0
	fmt.Fprintf(w, "%-18s %-18s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "verdict")
	for _, def := range workloads {
		values := func(runs []runResult, metric string, trace int) (vs []float64) {
			for _, r := range runs {
				if m, ok := r.Metrics[metric]; ok && r.Workload == def.name && r.Trace == trace {
					vs = append(vs, m.Value)
				}
			}
			return vs
		}
		for _, d := range endToEnd {
			va, vb := values(a, d.Name, 0), values(b, d.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := verdict(d, va, vb)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-18s %-18s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				def.name, d.Name, median(va), median(vb), 100*worse, 100*spread(va), 100*spread(vb), v)
		}
		failedShare := func(runs []runResult) (float64, bool) {
			var failed, attempted int
			for _, r := range runs {
				if r.Workload == def.name {
					failed += r.Failed
					attempted += r.Attempted
				}
			}
			return float64(failed) / float64(max(attempted, 1)), attempted > 0
		}
		fa, okA := failedShare(a)
		fb, okB := failedShare(b)
		if okA && okB {
			v := "ok"
			if fb > fa {
				v = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-18s %-18s %12.6g %12.6g %8s %8s %8s  %s\n", def.name, "failed_frac", fa, fb, "", "", "", v)
		}
		for _, name := range exactCounters {
			for _, ra := range a {
				for _, rb := range b {
					if ra.Workload != def.name || rb.Workload != def.name || ra.Trace != 1 || rb.Trace != 1 || ra.Seed != rb.Seed {
						continue
					}
					v := "same"
					if ra.Metrics[name].Value != rb.Metrics[name].Value {
						v = "changed"
					}
					fmt.Fprintf(w, "%-18s %-18s %12.0f %12.0f %8s %8s seed %-3d  %s\n",
						def.name, name, ra.Metrics[name].Value, rb.Metrics[name].Value, "", "", ra.Seed, v)
				}
			}
		}
	}
	return regressed
}
