// Command benchmark is this repository's benchmark: six named workloads,
// end-to-end metrics with regression bounds, and a traced run that fills a
// per-layer ledger. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory explains them.
//
//	go run ./benchmark -workload g500_sq_sorted -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -workload g500_sq_sorted -seed 1 -seconds 10 -trace 1
//	go run ./benchmark -compare benchmark/results/baseline-A.jsonl benchmark/results/baseline-B.jsonl
//
// One invocation is one run of one workload in a fresh process. Its last
// line on standard output is a JSON object with correct, attempted, failed
// and metrics: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"time"
)

// outDir receives what a run leaves behind (trace files, the spill file of
// the out-of-core probe); it is relative to the repository root, where the
// command runs, and is ignored by git.
const outDir = "benchmark/out"

func main() {
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", "", "append the run, with a host fingerprint, to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare two run sets: -compare <baseline.jsonl> <candidate.jsonl>")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two run-set files"))
		}
		a, err := loadRuns(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := loadRuns(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if n := compareSets(os.Stdout, a, b); n > 0 {
			fmt.Printf("%d regressed\n", n)
			os.Exit(1)
		}
		return
	}

	def := findWorkload(*workload)
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-18s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}

	var r *runner
	var ms metricSet
	var err error
	if *trace == 1 {
		r, ms, err = runTraced(def, *seed, *seconds, outDir)
	} else {
		r, ms, err = runEndToEnd(def, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	if r.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first failure:", r.firstErr)
	}

	res := runResult{
		Workload: def.name, Seed: *seed, Trace: *trace,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: ms.complete(), Host: readHost(), HostSpeed: r.host.speed(), Time: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Fprintf(os.Stderr, "host speed %.3f of nominal; op and set-up times are scaled to nominal\n", res.HostSpeed)
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Printf("%-32s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if *out != "" {
		if err := appendRun(*out, res); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// appendRun adds one line to a run-set file; run sets are histories, never
// rewritten.
func appendRun(path string, res runResult) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
