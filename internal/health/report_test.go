package health_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/health"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// mpegEvents replays the examples/telemetry setup — the MPEG decoder
// profiled on one movie clip and measured on the next — and returns the
// recorded event stream. The run is deterministic, so the analysis report
// over it is golden-file testable.
func mpegEvents(t *testing.T, n int) []telemetry.Event {
	t.Helper()
	g0, p, err := mpeg.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.TightenDeadline(g0, p, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	vec := trace.MovieClips()[0].Generate(g, 1000+n)
	if err := trace.ApplyProfile(g, trace.AverageProbs(g, vec[:1000])); err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewMemoryRecorder()
	m, err := core.New(g, p, core.Options{Window: 20, Threshold: 0.1, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(vec[1000:]); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("report drifted from %s — diff:\n%s\n(re-bless with -update if intended)",
			path, diffLines(string(want), got))
	}
}

// diffLines renders a minimal first-divergence diff for test failure output.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			return "line " + string(rune('0'+i%10)) + ":\n-" + lw + "\n+" + lg
		}
	}
	return "(no line diff?)"
}

// TestReportGoldenJSONL pins the full analyze pipeline: MPEG run → JSONL
// roundtrip → Analyze → Report, compared byte-for-byte against the golden
// file. This is the same path `ctgsched analyze events.jsonl` takes.
func TestReportGoldenJSONL(t *testing.T) {
	events := mpegEvents(t, 60)

	// Roundtrip through the JSONL encoding, as the CLI would read it.
	var buf bytes.Buffer
	jr := telemetry.NewJSONLRecorder(&buf)
	for _, e := range events {
		jr.Record(e)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(events) {
		t.Fatalf("JSONL roundtrip lost events: %d vs %d", len(loaded), len(events))
	}

	// pipeline_span values are wall-clock latencies — nondeterministic
	// between runs. Zero them so the golden pins the section's shape (phase
	// names, span counts) without the volatile durations.
	for i := range loaded {
		if loaded[i].Kind == telemetry.KindSpan {
			loaded[i].Value = 0
		}
	}

	s := health.Analyze(loaded, health.Options{})
	report := s.Report()

	// The acceptance floor: at least one drift measurement, one SLO verdict
	// and one hotspot ranking must appear regardless of golden content.
	if len(s.Drift) == 0 || s.Drift[0].Estimates == 0 {
		t.Fatal("report carries no drift measurements")
	}
	if len(s.SLO.Verdicts) == 0 {
		t.Fatal("report carries no SLO verdicts")
	}
	if len(s.Hotspots.Tasks) == 0 || len(s.Hotspots.PEs) == 0 {
		t.Fatal("report carries no hotspot rankings")
	}
	checkGolden(t, "mpeg_report.golden", report)
}

// jsonlCapture encodes events as a JSONL capture, as a recorder writes it.
func jsonlCapture(t *testing.T, events []telemetry.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	jr := telemetry.NewJSONLRecorder(&buf)
	for _, e := range events {
		jr.Record(e)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadEventsTruncatedTail pins what analysis sees of a capture whose
// recorder was killed mid-write: the one reader hands back the intact
// prefix with a typed warning, and the report over that prefix is the
// report over the events before the torn line. A torn line with events
// after it is corruption and leaves nothing to analyze.
func TestLoadEventsTruncatedTail(t *testing.T) {
	events := mpegEvents(t, 10)
	data := jsonlCapture(t, events)
	lastNL := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n')
	torn := data[:len(data)-(len(data)-lastNL)/2]

	loaded, err := telemetry.ReadJSONL(bytes.NewReader(torn))
	var tail *telemetry.TruncatedTailError
	if !errors.As(err, &tail) {
		t.Fatalf("want TruncatedTailError, got %v", err)
	}
	if len(loaded) != len(events)-1 || tail.Line != len(events) {
		t.Fatalf("prefix not recovered: %d events, torn line %d (capture of %d)",
			len(loaded), tail.Line, len(events))
	}
	got := health.Analyze(loaded, health.Options{}).Report()
	want := health.Analyze(events[:len(events)-1], health.Options{}).Report()
	if got != want {
		t.Fatalf("report over the torn capture differs from the prefix report:\n%s\nwant:\n%s", got, want)
	}

	// The torn line followed by intact events is corruption, not truncation.
	midStream := append(append([]byte{}, torn...), '\n')
	midStream = append(midStream, data[:bytes.IndexByte(data, '\n')+1]...)
	if evs, err := telemetry.ReadJSONL(bytes.NewReader(midStream)); err == nil || errors.As(err, &tail) || evs != nil {
		t.Fatalf("mid-stream corruption tolerated: %d events, %v", len(evs), err)
	}
}

// TestLoadEventsErrors covers the inputs analysis must refuse: garbage
// yields no events, and a Chrome trace file (which is not re-imported) is a
// hard read error rather than a stream of empty events.
func TestLoadEventsErrors(t *testing.T) {
	if evs, err := telemetry.ReadJSONL(strings.NewReader("not json at all")); err == nil || len(evs) != 0 {
		t.Fatalf("garbage input accepted: %d events, %v", len(evs), err)
	}
	ct := telemetry.NewChromeTrace()
	ct.AddRun("a", 1, mpegEvents(t, 5))
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var tail *telemetry.TruncatedTailError
	if evs, err := telemetry.ReadJSONL(&buf); err == nil || errors.As(err, &tail) || evs != nil {
		t.Fatalf("Chrome trace read as a capture: %d events, %v", len(evs), err)
	}
}
