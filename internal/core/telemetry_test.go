package core

import (
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// telemetryWorkload builds a deterministic graph + platform pair for the
// telemetry tests (testWorkload only returns the graph).
func telemetryWorkload(t *testing.T, seed int64) (*ctg.Graph, *platform.Platform) {
	t.Helper()
	g, cfg := testWorkload(t, seed)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

// TestTelemetryEventStream checks the manager narrates a run completely: one
// start/finish pair per instance, task slices from the simulator, estimate
// updates for executed forks, and a reschedule decision for every call.
func TestTelemetryEventStream(t *testing.T) {
	g, p := telemetryWorkload(t, 11)
	rec := telemetry.NewMemoryRecorder()
	m, err := New(g, p, Options{Window: 10, Threshold: 0.1, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(trace.Fluctuating(g, 7, 40, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	byKind := rec.CountByKind()
	if got := byKind[telemetry.KindInstanceStart]; got != st.Instances {
		t.Fatalf("%d instance_start events, want %d", got, st.Instances)
	}
	if got := byKind[telemetry.KindInstanceFinish]; got != st.Instances {
		t.Fatalf("%d instance_finish events, want %d", got, st.Instances)
	}
	if byKind[telemetry.KindTaskSlice] < st.Instances {
		t.Fatalf("only %d task slices for %d instances", byKind[telemetry.KindTaskSlice], st.Instances)
	}
	if byKind[telemetry.KindEstimate] == 0 {
		t.Fatal("no window-estimate events")
	}
	// One reschedule decision per call, plus the initial schedule.
	if got := byKind[telemetry.KindReschedule]; got != st.Calls+1 {
		t.Fatalf("%d reschedule events, want calls+initial = %d", got, st.Calls+1)
	}
	// Event-level invariants: ids in range, finishes carry the replay result.
	for _, ev := range rec.Events() {
		if ev.Instance < 0 || ev.Instance >= st.Instances {
			t.Fatalf("event %+v has out-of-range instance id", ev)
		}
		if ev.Kind == telemetry.KindInstanceFinish && (ev.Energy <= 0 || ev.Makespan <= 0) {
			t.Fatalf("degenerate finish event %+v", ev)
		}
	}
}

// TestTelemetryDisabledBitForBit pins the headline guarantee: a manager with
// telemetry attached produces the exact same RunStats as one without — the
// recorder and registry observe, they never steer.
func TestTelemetryDisabledBitForBit(t *testing.T) {
	run := func(opts Options) RunStats {
		g, p := telemetryWorkload(t, 12)
		m, err := New(g, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run(trace.Fluctuating(g, 3, 60, 0.45))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := run(Options{Window: 10, Threshold: 0.1})
	instrumented := run(Options{
		Window: 10, Threshold: 0.1,
		Recorder: telemetry.NewMemoryRecorder(),
		Metrics:  telemetry.NewRegistry(),
	})
	if plain != instrumented {
		t.Fatalf("telemetry changed RunStats:\nplain        %+v\ninstrumented %+v", plain, instrumented)
	}
}

// TestMetricsMirrorMatchesRunStats checks the registry mirrors the logic
// counters exactly — same numbers, just exposed live instead of at run end.
func TestMetricsMirrorMatchesRunStats(t *testing.T) {
	g, p := telemetryWorkload(t, 13)
	m, err := New(g, p, Options{Window: 10, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(trace.Fluctuating(g, 5, 50, 0.45))
	if err != nil {
		t.Fatal(err)
	}
	reg := m.Metrics()
	if reg == nil {
		t.Fatal("Metrics() must never be nil")
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"adaptive.instances":    int64(st.Instances),
		"adaptive.misses":       int64(st.Misses),
		"adaptive.calls":        int64(st.Calls),
		"adaptive.cache_hits":   int64(st.CacheHits),
		"adaptive.cache_misses": int64(st.CacheMisses),
		"adaptive.overruns":     int64(st.Overruns),
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	h := snap.Histograms["adaptive.makespan"]
	if h.Count != uint64(st.Instances) {
		t.Fatalf("makespan histogram count = %d, want %d", h.Count, st.Instances)
	}
	if h.P50 > h.P95 || h.P95 > h.P99 {
		t.Fatalf("quantile ordering violated: %+v", h)
	}
}

// TestRunStatsPercentiles checks the new distribution summaries are ordered,
// bracketed by the observed makespans, and shared by the static runtime.
func TestRunStatsPercentiles(t *testing.T) {
	g, p := telemetryWorkload(t, 14)
	m, err := New(g, p, Options{Window: 10, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(trace.Fluctuating(g, 9, 80, 0.45))
	if err != nil {
		t.Fatal(err)
	}
	if st.MakespanP50 <= 0 {
		t.Fatalf("MakespanP50 = %v, want > 0", st.MakespanP50)
	}
	if st.MakespanP50 > st.MakespanP95 || st.MakespanP95 > st.MakespanP99 {
		t.Fatalf("makespan percentiles unordered: %v %v %v",
			st.MakespanP50, st.MakespanP95, st.MakespanP99)
	}
	if st.Misses == 0 && (st.LatenessP99 != 0 || st.LatenessP50 != 0) {
		t.Fatalf("lateness percentiles nonzero without misses: %v %v",
			st.LatenessP50, st.LatenessP99)
	}
	s, err := BuildOnline(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sst, err := RunStatic(s, trace.Fluctuating(g, 9, 80, 0.45), sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sst.MakespanP50 <= 0 || sst.MakespanP50 > sst.MakespanP99 {
		t.Fatalf("static percentiles broken: %+v", sst)
	}
}
