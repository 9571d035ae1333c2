package series

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the watch golden file")

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 8); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
	// A flat window renders at the lowest glyph.
	if got := Sparkline([]float64{2, 2, 2}, 8); got != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", got)
	}
	// Monotone ramp spans the glyph range, NaN renders as a space.
	got := Sparkline([]float64{0, math.NaN(), 7}, 8)
	if got != "▁ █" {
		t.Fatalf("ramp sparkline = %q", got)
	}
	// Only the trailing width samples render.
	if got := Sparkline([]float64{9, 9, 0, 7}, 2); got != "▁█" {
		t.Fatalf("trailing-window sparkline = %q", got)
	}
}

// TestRenderWatchManager checks the manager layout and the alerts section
// on a hand-built dump.
func TestRenderWatchManager(t *testing.T) {
	d := Dump{
		Ticks: 3,
		Series: []SeriesDump{
			{Name: "adaptive.miss_rate", T: []int{0, 1, 2}, V: []float64{0, 0.5, 0.33}},
			{Name: "adaptive.miss_rate_window", T: []int{2}, V: []float64{0.4}},
		},
		Alerts: []AlertStatus{
			{Rule: Rule{Name: "missy", Metric: "adaptive.miss_rate", Value: 0.25}, Firing: true, Value: 0.33},
		},
	}
	out := RenderWatch(d, WatchOptions{Width: 8})
	for _, want := range []string{
		"ctgsched watch — 3 ticks, 2 series",
		"manager",
		"miss rate (window)",
		"miss rate (run)",
		"alerts (1 rules, 1 firing)",
		"FIRING missy",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("watch output missing %q:\n%s", want, out)
		}
	}
}

// TestRenderWatchGolden renders a committed fault-campaign dump and pins the
// full view. The dump is the mpeg store written by `experiments -exp faults
// -rules examples/watch/rules.json -series-out P` (make watch-smoke), cut
// down to the series the view renders.
func TestRenderWatchGolden(t *testing.T) {
	d, err := LoadDump(filepath.Join("testdata", "faults_mpeg_series.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := RenderWatch(d, WatchOptions{Width: 32})
	path := filepath.Join("testdata", "watch_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("watch render drifted from %s:\n%s\n(re-bless with -update if intended)", path, got)
	}
}
