package bench

import (
	"encoding/json"
	"os"
	"runtime"
)

// Snapshot is the machine-readable record of a reuse-experiment run, written
// by spgemm-bench -snapshot. The checked-in one (BENCH_spgemm.json at the
// repository root) is what the server's perf sentry loads as its baseline
// (server.LoadSentryBaseline); the file is deterministic modulo timings for
// a fixed preset/seed/workers triple.
type Snapshot struct {
	Schema     int            `json:"schema"`
	Experiment string         `json:"experiment"`
	Go         string         `json:"go"`
	OS         string         `json:"os"`
	Arch       string         `json:"arch"`
	CPUs       int            `json:"cpus"`
	Workers    int            `json:"workers"`
	Preset     string         `json:"preset"`
	Seed       int64          `json:"seed"`
	Scale      int            `json:"scale"`
	EdgeFactor int            `json:"edge_factor"`
	Flop       int64          `json:"flop"`
	Iters      int            `json:"iters"`
	Results    []reuseVariant `json:"results"`
}

// presetName is the inverse of ParsePreset, for the snapshot record.
func presetName(p Preset) string {
	switch p {
	case Tiny:
		return "tiny"
	case Full:
		return "full"
	default:
		return "quick"
	}
}

// ReuseSnapshot runs the reuse experiment plus the skewed G500 and
// out-of-core experiments and packages the results. The skewed rows (variant
// "g500-s<scale>") carry the tiled-vs-best comparison; the outofcore rows (variant "outofcore-s<scale>") track the
// spill-backed sharded engine so residency-bound regressions show up in the
// same diff.
func ReuseSnapshot(cfg Config) (*Snapshot, error) {
	scale, flop, rows, err := measureReuse(cfg)
	if err != nil {
		return nil, err
	}
	_, _, skewedRows, err := measureSkewed(cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, skewedRows...)
	ooc, err := measureOutOfCore(cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, ooc.Rows...)
	return &Snapshot{
		Schema:     1,
		Experiment: "reuse",
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Workers:    cfg.workers(),
		Preset:     presetName(cfg.Preset),
		Seed:       cfg.seed(),
		Scale:      scale,
		EdgeFactor: 16,
		Flop:       flop,
		Iters:      cfg.reps(),
		Results:    rows,
	}, nil
}

// WriteSnapshot serializes s as indented JSON to path.
func WriteSnapshot(path string, s *Snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
