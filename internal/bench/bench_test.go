package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/memmodel"
)

func TestParsePreset(t *testing.T) {
	cases := map[string]Preset{"": Quick, "quick": Quick, "tiny": Tiny, "full": Full}
	for s, want := range cases {
		got, err := ParsePreset(s)
		if err != nil || got != want {
			t.Fatalf("ParsePreset(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePreset("bogus"); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

// TestDDRTierFallsBack: a stanza curve with no latency (short stanzas faster
// than long ones, as from a probe that sits in cache) is no DDR fit, so
// Figures 5 and 10 model with memmodel.DefaultDDR and say so.
func TestDDRTierFallsBack(t *testing.T) {
	cached := []memmodel.StanzaResult{{StanzaBytes: 16, GBps: 4}, {StanzaBytes: 4096, GBps: 3.2}}
	if tier, note := ddrTier(cached); tier != memmodel.DefaultDDR || !strings.Contains(note, "DefaultDDR") {
		t.Fatalf("ddrTier = %+v, %q; want DefaultDDR, named", tier, note)
	}
	fit := []memmodel.StanzaResult{{StanzaBytes: 16, GBps: 1}, {StanzaBytes: 4096, GBps: 8}}
	if tier, note := ddrTier(fit); tier.LatencyNs <= 0 || !strings.Contains(note, "fitted") {
		t.Fatalf("ddrTier = %+v, %q; want a fitted tier", tier, note)
	}
}

// TestMedianCurveOutvotesOneDisturbedRound: one probe round that a
// neighbour disturbed into a falling curve, which alone fails the fit, moves
// neither the median curve nor the tier fitted to it.
func TestMedianCurveOutvotesOneDisturbedRound(t *testing.T) {
	curve := func(gbps ...float64) []memmodel.StanzaResult {
		r := make([]memmodel.StanzaResult, len(gbps))
		for i, g := range gbps {
			r[i] = memmodel.StanzaResult{StanzaBytes: 16 << (5 * i), GBps: g}
		}
		return r
	}
	disturbed := curve(4, 3.5, 3.2)
	if tier, _ := ddrTier(disturbed); tier != memmodel.DefaultDDR {
		t.Fatalf("the disturbed round alone fitted %+v; the test needs it to fail", tier)
	}
	got := medianCurve([][]memmodel.StanzaResult{curve(1, 4, 8), disturbed, curve(1.1, 4.2, 8.3)})
	want := curve(1.1, 4, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("median curve %v, want %v", got, want)
		}
	}
	if tier, note := ddrTier(got); !strings.Contains(note, "fitted") {
		t.Fatalf("ddrTier(median) = %+v, %q; want a fitted tier", tier, note)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.workers() < 1 {
		t.Fatal("workers default")
	}
	if c.seed() == 0 {
		t.Fatal("seed default")
	}
	if c.reps() != 3 {
		t.Fatalf("quick reps = %d", c.reps())
	}
	if (Config{Preset: Tiny}).reps() != 1 || (Config{Preset: Full}).reps() != 10 {
		t.Fatal("preset reps")
	}
	if (Config{Reps: 7}).reps() != 7 {
		t.Fatal("explicit reps")
	}
}

func TestRegistryCompleteAndUnique(t *testing.T) {
	reg := Registry()
	want := []string{"fig2", "fig4", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "table2", "table4", "hmean"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	seen := map[string]bool{}
	for i, e := range reg {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("%s: incomplete experiment", e.ID)
		}
	}
	if Find("fig11") == nil || Find("nope") != nil {
		t.Fatal("Find broken")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := Run("nope", Config{Preset: Tiny}, &sb); err == nil {
		t.Fatal("expected error")
	}
}

// TestEveryExperimentRunsTiny executes the full registry at the Tiny preset
// — the end-to-end smoke test of the whole reproduction harness.
func TestEveryExperimentRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run skipped in -short")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			if err := e.Run(Config{Preset: Tiny}, &sb); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			out := sb.String()
			if len(out) < 40 {
				t.Fatalf("%s produced implausibly short output: %q", e.ID, out)
			}
			if strings.Contains(out, "NaN") {
				t.Fatalf("%s output contains NaN:\n%s", e.ID, out)
			}
		})
	}
}

func TestRunAllDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	var sb strings.Builder
	// Run a single experiment through the dispatcher.
	if err := Run("fig2", Config{Preset: Tiny}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "=== fig2") {
		t.Fatal("missing banner")
	}
}

func TestCSVOutputMode(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	var sb strings.Builder
	if err := Run("fig2", Config{Preset: Tiny, CSV: true}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "iterations,static_ms,dynamic_ms,guided_ms") {
		t.Fatalf("CSV header missing:\n%s", sb.String())
	}
}

func TestEnvironment(t *testing.T) {
	var sb strings.Builder
	Environment(&sb)
	if !strings.Contains(sb.String(), "gomaxprocs") {
		t.Fatal("environment output missing fields")
	}
}

func TestMFLOPSMetric(t *testing.T) {
	// 1e6 flop in 1s = 2 MFLOPS (multiply+add convention).
	if got := mflops(1_000_000, time.Second); math.Abs(got-2) > 1e-9 {
		t.Fatalf("mflops = %v", got)
	}
	if mflops(100, 0) != 0 {
		t.Fatal("zero duration must give 0")
	}
}

func TestTimeAvg(t *testing.T) {
	calls := 0
	d := timeAvg(5, func() { calls++ })
	if calls != 5 {
		t.Fatalf("calls = %d", calls)
	}
	if d < 0 {
		t.Fatal("negative duration")
	}
	timeAvg(0, func() { calls++ })
	if calls != 6 {
		t.Fatal("reps<1 should clamp to 1")
	}
}

func TestHarmonicMean(t *testing.T) {
	if hm := harmonicMean([]float64{1, 1, 1}); math.Abs(hm-1) > 1e-12 {
		t.Fatalf("hm = %v", hm)
	}
	// HM of 2 and 6 is 3.
	if hm := harmonicMean([]float64{2, 6}); math.Abs(hm-3) > 1e-12 {
		t.Fatalf("hm = %v", hm)
	}
	if harmonicMean(nil) != 0 || harmonicMean([]float64{1, 0}) != 0 {
		t.Fatal("degenerate cases")
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := linearFit(x, y)
	if math.Abs(slope-2) > 1e-9 || math.Abs(intercept-1) > 1e-9 {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	if s, _ := linearFit([]float64{1}, []float64{1}); s != 0 {
		t.Fatal("underdetermined fit should return 0 slope")
	}
}

func TestTableRendering(t *testing.T) {
	tab := newTable("a", "bb")
	tab.add("1", "2")
	tab.add("333", "4")
	var sb strings.Builder
	tab.write(&sb, false)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	// Aligned: the second column starts at the same offset on every line.
	if !strings.HasPrefix(lines[0], "a    bb") {
		t.Fatalf("header = %q", lines[0])
	}
	var csv strings.Builder
	tab.write(&csv, true)
	if !strings.HasPrefix(csv.String(), "a,bb\n1,2\n") {
		t.Fatalf("csv = %q", csv.String())
	}
}
