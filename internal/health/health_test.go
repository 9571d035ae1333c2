package health_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/health"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

func testWorkload(t *testing.T, seed int64) (*ctg.Graph, *platform.Platform) {
	t.Helper()
	cfg := tgff.Config{Seed: seed, Nodes: 18, PEs: 3, Branches: 2, Category: tgff.ForkJoin}
	g, p, err := tgff.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

// TestAnalyzerPassivity pins that analysis only reads its capture: Analyze
// leaves the recorded stream exactly as it was (the drift trackers copy the
// estimates they are seeded from), and two analyses of one stream agree.
func TestAnalyzerPassivity(t *testing.T) {
	g, p := testWorkload(t, 12)
	mem := telemetry.NewMemoryRecorder()
	m, err := core.New(g, p, core.Options{Window: 10, Threshold: 0.1, Recorder: mem})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(trace.Fluctuating(g, 3, 60, 0.45)); err != nil {
		t.Fatal(err)
	}
	events := mem.Events()
	first := health.Analyze(events, health.Options{})
	if !reflect.DeepEqual(events, mem.Events()) {
		t.Fatal("Analyze changed the stream it read")
	}
	if second := health.Analyze(events, health.Options{}); !reflect.DeepEqual(first, second) {
		t.Fatal("two analyses of one stream disagree")
	}
}

// alertAt is one rule transition: the rule name and the instance it happened
// at.
type alertAt struct {
	Rule     string
	Instance int
}

// TestHealthRules runs the default alert rules, examples/watch/health.json,
// over managers: each run arms them on a series store that samples the
// manager's own registry, so the rules see the adaptive.health.* gauges the
// manager publishes, exactly as in the daemon. Each run is built to trip one
// rule; the offline report of the recorded stream lists the same firings.
func TestHealthRules(t *testing.T) {
	rs, err := series.LoadRules(filepath.Join("..", "..", "examples", "watch", "health.json"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, g *ctg.Graph, p *platform.Platform, opts core.Options, vectors [][]int) (health.Snapshot, []alertAt, []alertAt) {
		t.Helper()
		mem := telemetry.NewMemoryRecorder()
		opts.Recorder = mem
		opts.Series = series.NewStore(series.StoreOptions{Registry: telemetry.NewRegistry(), Rules: rs.Rules})
		opts.Metrics = opts.Series.Registry()
		m, err := core.New(g, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(vectors); err != nil {
			t.Fatal(err)
		}
		var fired, resolved []alertAt
		for _, e := range mem.Events() {
			switch e.Kind {
			case telemetry.KindAlertFiring:
				fired = append(fired, alertAt{e.Name, e.Instance})
			case telemetry.KindAlertResolved:
				resolved = append(resolved, alertAt{e.Name, e.Instance})
			}
		}
		s := health.Analyze(mem.Events(), health.Options{})
		firings := 0
		if s.SeriesAlerts != nil {
			firings = s.SeriesAlerts.Firings
		}
		if firings != len(fired) {
			t.Fatalf("report counts %d firings, stream holds %d", firings, len(fired))
		}
		return s, fired, resolved
	}
	check := func(t *testing.T, kind string, got, want []alertAt) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s = %v, want %v", kind, got, want)
		}
	}
	// constant repeats one decision vector: every fork takes outcome 0.
	constant := func(g *ctg.Graph, n int) [][]int {
		vs := make([][]int, n)
		for i := range vs {
			vs[i] = make([]int, g.NumForks())
		}
		return vs
	}
	// missing is a workload whose deadline is half its full-speed makespan:
	// every instance misses.
	missing := func(t *testing.T) (*ctg.Graph, *platform.Platform) {
		g0, p := testWorkload(t, 5)
		g, err := core.TightenDeadline(g0, p, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return g, p
	}

	t.Run("drift", func(t *testing.T) {
		// Every fork always takes outcome 0, but a 200-deep window seeded at
		// the profile barely moves and a threshold of 1 never adopts it: the
		// realized frequencies leave the estimates behind.
		g, p := testWorkload(t, 12)
		opts := core.Options{Window: 200}
		opts.SetThreshold(1)
		s, fired, _ := run(t, g, p, opts, constant(g, 60))
		if len(fired) == 0 || fired[0].Rule != "drift" {
			t.Fatalf("firings = %v, want drift first", fired)
		}
		worst := 0.0
		for _, f := range s.Drift {
			worst = max(worst, f.ErrEWMA)
		}
		if worst < 0.2 {
			t.Fatalf("worst err EWMA %.3f below the drift bound", worst)
		}
	})

	t.Run("miss_streak", func(t *testing.T) {
		g, p := missing(t)
		s, fired, resolved := run(t, g, p, core.Options{Window: 20}, constant(g, 8))
		check(t, "firings", fired, []alertAt{{"miss-budget", 0}, {"miss-streak", 2}})
		check(t, "resolutions", resolved, nil)
		if s.SLO.CurStreak != 8 || s.SLO.MaxStreak != 8 {
			t.Fatalf("streak tracking wrong: %+v", s.SLO)
		}
	})

	t.Run("pe_loss", func(t *testing.T) {
		// PE 1 is out for instances 3..5, back, then dies for good at 9; PE
		// 0 is out at 11..12 while PE 1 is still dead (no new alert).
		g, p := testWorkload(t, 12)
		tl, err := faults.NewTimeline(faults.FailureSpec{Events: []faults.FailureEvent{
			{Kind: faults.EventPE, PE: 1, Instance: 3, Duration: 3},
			{Kind: faults.EventPE, PE: 1, Instance: 9},
			{Kind: faults.EventPE, PE: 0, Instance: 11, Duration: 2},
		}}, p.NumPEs())
		if err != nil {
			t.Fatal(err)
		}
		s, fired, resolved := run(t, g, p, core.Options{Window: 10, Recovery: true, Failures: tl},
			trace.Fluctuating(g, 3, 16, 0.45))
		var peFired []alertAt
		for _, a := range fired {
			if a.Rule == "pe-loss" {
				peFired = append(peFired, a)
			}
		}
		check(t, "pe-loss firings", peFired, []alertAt{{"pe-loss", 3}, {"pe-loss", 9}})
		check(t, "resolutions", resolved, []alertAt{{"pe-loss", 6}})
		if s.Availability == nil || len(s.Availability.PEs) != 2 {
			t.Fatalf("availability = %+v, want 2 PE records", s.Availability)
		}
		pe0, pe1 := s.Availability.PEs[0], s.Availability.PEs[1]
		if pe0.PE != 0 || pe0.Permanent || pe0.Down || pe0.Outages != 1 {
			t.Fatalf("PE 0 record = %+v", pe0)
		}
		if pe1.PE != 1 || !pe1.Permanent || !pe1.Down || pe1.Outages != 2 {
			t.Fatalf("PE 1 record = %+v", pe1)
		}
		report := s.Report()
		for _, want := range []string{"hardware availability", "DEAD (permanent)"} {
			if !strings.Contains(report, want) {
				t.Fatalf("report missing %q:\n%s", want, report)
			}
		}
	})

	t.Run("miss_budget", func(t *testing.T) {
		// The budget rule reads adaptive.miss_rate, so it fires on the first
		// miss, with no warm-up; the report's burn rate agrees.
		g, p := missing(t)
		s, fired, _ := run(t, g, p, core.Options{Window: 20}, constant(g, 2))
		check(t, "firings", fired, []alertAt{{"miss-budget", 0}})
		if want := 1 / health.DefaultMaxMissRate; s.SLO.BudgetBurn != want {
			t.Fatalf("budget burn = %v, want %v", s.SLO.BudgetBurn, want)
		}
	})
}

func finishEvent(instance int, met bool, lateness, makespan, energy float64) telemetry.Event {
	return telemetry.Event{
		Kind: telemetry.KindInstanceFinish, Instance: instance,
		Met: met, Lateness: lateness, Makespan: makespan, Energy: energy,
	}
}

// TestSLOVerdictsAndBudgetBurn checks verdict scoring, the warm-up pending
// flag, and the budget-burn rate.
func TestSLOVerdictsAndBudgetBurn(t *testing.T) {
	opts := health.Options{SLO: health.SLO{MaxMissRate: 0.25, MaxAvgEnergy: 100}}
	events := []telemetry.Event{finishEvent(0, true, 0, 10, 50)}
	s := health.Analyze(events, opts)
	if len(s.SLO.Verdicts) != 2 {
		t.Fatalf("want 2 verdicts (miss_rate, avg_energy), got %+v", s.SLO.Verdicts)
	}
	for _, v := range s.SLO.Verdicts {
		if !v.Pending {
			t.Fatalf("verdict %s should be pending during warm-up", v.Name)
		}
	}
	// Ten instances (the warm-up), five of them missed.
	for i := 1; i < 10; i++ {
		events = append(events, finishEvent(i, i%2 == 0, 2, 12, 50))
	}
	s = health.Analyze(events, opts)
	// miss rate 5/10 = 0.5 > 0.25: FAIL, past the warm-up.
	var miss *health.Verdict
	for i := range s.SLO.Verdicts {
		if s.SLO.Verdicts[i].Name == "miss_rate" {
			miss = &s.SLO.Verdicts[i]
		}
	}
	if miss == nil || miss.Pass || miss.Pending {
		t.Fatalf("miss_rate verdict wrong: %+v", s.SLO.Verdicts)
	}
	if want := 0.5 / 0.25; s.SLO.BudgetBurn != want {
		t.Fatalf("budget burn = %v, want %v", s.SLO.BudgetBurn, want)
	}
	if s.SLO.AvgEnergy != 50 {
		t.Fatalf("avg energy = %v, want 50", s.SLO.AvgEnergy)
	}
}

// TestHotspotAttribution analyzes two instances of synthetic slices and
// checks ranking order and critical-path attribution, including the
// fallback-supersedes-primary rule.
func TestHotspotAttribution(t *testing.T) {
	slice := func(inst, task int, name string, pe int, start, end, energy float64, phase string) telemetry.Event {
		return telemetry.Event{
			Kind: telemetry.KindTaskSlice, Instance: inst, Task: task, Name: name,
			PE: pe, Start: start, End: end, Energy: energy, Phase: phase,
		}
	}
	s := health.Analyze([]telemetry.Event{
		// Instance 0: task 1 ends last on the primary timeline.
		slice(0, 0, "src", 0, 0, 4, 2, ""),
		slice(0, 1, "dec", 1, 4, 10, 3, ""),
		{
			Kind: telemetry.KindCommSlice, Instance: 0, Edge: 0, Task: 0, Task2: 1,
			PE: 0, PE2: 1, Start: 4, End: 5, Energy: 1,
		},
		finishEvent(0, true, 0, 10, 5),
		// Instance 1: primary ends with task 1, but a fallback replay ran and
		// its terminal is task 0 — the fallback wins the critical credit.
		slice(1, 1, "dec", 1, 0, 9, 3, ""),
		slice(1, 0, "src", 0, 0, 6, 2, telemetry.PhaseFallback),
		finishEvent(1, false, 1, 11, 5),
	}, health.Options{})
	if s.Instances != 2 {
		t.Fatalf("instances = %d, want 2", s.Instances)
	}
	if len(s.Hotspots.Tasks) != 2 || len(s.Hotspots.PEs) != 2 || len(s.Hotspots.Links) != 1 {
		t.Fatalf("hotspot shape wrong: %+v", s.Hotspots)
	}
	// Each task was critical once; tie broken by busy time (task 1: 6+9=15).
	top := s.Hotspots.Tasks[0]
	if top.Task != 1 || top.Critical != 1 || top.Busy != 15 {
		t.Fatalf("top task wrong: %+v", top)
	}
	if s.Hotspots.Tasks[1].Critical != 1 {
		t.Fatalf("fallback terminal not credited: %+v", s.Hotspots.Tasks[1])
	}
	if l := s.Hotspots.Links[0]; l.From != 0 || l.To != 1 || l.Transfers != 1 || l.Busy != 1 {
		t.Fatalf("link attribution wrong: %+v", l)
	}
}

// TestTimelineAndAlertSink checks decision-timeline capture, bounded
// eviction, and that a rule firing lands in the timeline once.
func TestTimelineAndAlertSink(t *testing.T) {
	events := []telemetry.Event{
		{Kind: telemetry.KindReschedule, Instance: 0, Reason: "initial"},
		{Kind: telemetry.KindReschedule, Instance: 3, Reason: "drift", CacheHit: true},
	}
	// Fill the 64-entry timeline so the firing below is entry 65.
	for i := 0; i < 60; i++ {
		events = append(events, telemetry.Event{Kind: telemetry.KindReschedule, Instance: 4, Reason: "drift"})
	}
	events = append(events,
		telemetry.Event{Kind: telemetry.KindGuardLevel, Instance: 4, Level: 2, Level2: 1},
		telemetry.Event{Kind: telemetry.KindFallback, Instance: 5, Met: true},
		finishEvent(5, false, 1, 11, 5),
		telemetry.Event{Kind: telemetry.KindAlertFiring, Instance: 6, Name: "miss-streak",
			Reason: "adaptive.health.miss_streak", Value: 3, Threshold: 3})
	s := health.Analyze(events, health.Options{SLO: health.SLO{MaxMissRate: -1}})
	if len(s.Timeline) != 64 || s.TimelineDropped != 1 {
		t.Fatalf("timeline bound broken: %d entries, %d dropped", len(s.Timeline), s.TimelineDropped)
	}
	// Oldest entry ("initial" reschedule) evicted; newest is the alert.
	if s.Timeline[0].Kind != "reschedule" || !strings.Contains(s.Timeline[0].Detail, "cache hit") {
		t.Fatalf("unexpected oldest entry: %+v", s.Timeline[0])
	}
	if last := s.Timeline[63]; last.Kind != "alert_firing" || !strings.Contains(last.Detail, "miss-streak") {
		t.Fatalf("unexpected newest entry: %+v", last)
	}
	if s.SLO.Fallbacks != 1 || s.SLO.FallbacksSaved != 1 || s.SLO.GuardLevel != 2 {
		t.Fatalf("decision counters wrong: %+v", s.SLO)
	}
	if s.SeriesAlerts == nil || s.SeriesAlerts.Firings != 1 {
		t.Fatalf("rule firing not reported once: %+v", s.SeriesAlerts)
	}
}
