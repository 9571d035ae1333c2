package health_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
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

// TestAnalyzerPassivity pins the health layer's headline guarantee: fanning
// an AnalyzerRecorder into the event stream changes neither the RunStats nor
// the recorded events — bit for bit.
func TestAnalyzerPassivity(t *testing.T) {
	run := func(attach bool) (core.RunStats, []telemetry.Event) {
		g, p := testWorkload(t, 12)
		mem := telemetry.NewMemoryRecorder()
		var rec telemetry.Recorder = mem
		if attach {
			rec = telemetry.MultiRecorder{mem, health.New(health.Options{})}
		}
		m, err := core.New(g, p, core.Options{Window: 10, Threshold: 0.1, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run(trace.Fluctuating(g, 3, 60, 0.45))
		if err != nil {
			t.Fatal(err)
		}
		return st, mem.Events()
	}
	plainStats, plainEvents := run(false)
	monitoredStats, monitoredEvents := run(true)
	if plainStats != monitoredStats {
		t.Fatalf("health monitor changed RunStats:\nplain     %+v\nmonitored %+v",
			plainStats, monitoredStats)
	}
	// pipeline_span values are wall-clock durations — nondeterministic even
	// between two identical runs. The passivity property covers everything
	// else about the stream (kinds, order, seq/cause ids, payloads).
	for _, evs := range [][]telemetry.Event{plainEvents, monitoredEvents} {
		for i := range evs {
			if evs[i].Kind == telemetry.KindSpan {
				evs[i].Value = 0
			}
		}
	}
	if !reflect.DeepEqual(plainEvents, monitoredEvents) {
		t.Fatalf("health monitor changed the event stream: %d vs %d events",
			len(plainEvents), len(monitoredEvents))
	}
}

// estimateEvent builds one KindEstimate event as the manager emits it.
func estimateEvent(instance, fork int, probs []float64, outcome int) telemetry.Event {
	return telemetry.Event{
		Kind: telemetry.KindEstimate, Instance: instance, Fork: fork,
		Probs: probs, Outcome: outcome,
	}
}

// alertAt is one rule transition: the rule name and the instance it happened
// at.
type alertAt struct {
	Rule     string
	Instance int
}

// TestHealthRules runs the default alert rules, examples/watch/health.json,
// on a series store fed by the analyzer's adaptive.health.* gauges; the
// store ticks after every event at that event's instance. Drift fires once,
// when the error EWMA (decay 0.1) reaches 0.2, and resolves below 0.1; the
// miss streak fires once, on the third consecutive miss; PE loss is one
// alert while any PE is down; the miss budget fires on its first breach,
// with no warm-up.
func TestHealthRules(t *testing.T) {
	rs, err := series.LoadRules(filepath.Join("..", "..", "examples", "watch", "health.json"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(slo health.SLO, events []telemetry.Event) (health.Snapshot, []alertAt, []alertAt) {
		reg := telemetry.NewRegistry()
		a := health.New(health.Options{SLO: slo, Metrics: reg})
		st := series.NewStore(series.StoreOptions{Registry: reg, Rules: rs.Rules})
		mem := telemetry.NewMemoryRecorder()
		for _, e := range events {
			a.Record(e)
			st.Tick(e.Instance, mem, nil, 0)
		}
		var fired, resolved []alertAt
		for _, e := range mem.Events() {
			a.Record(e) // the report counts the firings
			switch e.Kind {
			case telemetry.KindAlertFiring:
				fired = append(fired, alertAt{e.Name, e.Instance})
			case telemetry.KindAlertResolved:
				resolved = append(resolved, alertAt{e.Name, e.Instance})
			}
		}
		return a.Health(), fired, resolved
	}
	check := func(t *testing.T, kind string, got, want []alertAt) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s = %v, want %v", kind, got, want)
		}
	}
	noBudget := health.SLO{MaxMissRate: -1}

	t.Run("drift", func(t *testing.T) {
		// Estimator insists on [0.5 0.5] while reality always takes branch
		// 0, then catches up with the all-branch-0 reality.
		var evs []telemetry.Event
		for i := 0; i < 120; i++ { // drift from instance 11, recovered by 54
			probs := []float64{0.5, 0.5}
			if i >= 40 {
				probs = []float64{1, 0}
			}
			evs = append(evs, estimateEvent(i, 0, probs, 0))
		}
		peak, _, _ := run(noBudget, evs[:40])
		if f := peak.Drift[0]; f.ErrEWMA < 0.2 {
			t.Fatalf("err EWMA %.3f below the drift bound after divergence", f.ErrEWMA)
		}
		s, fired, resolved := run(noBudget, evs)
		check(t, "firings", fired, []alertAt{{"drift", 11}})
		check(t, "resolutions", resolved, []alertAt{{"drift", 54}})
		if f := s.Drift[0]; f.ErrEWMA >= 0.1 {
			t.Fatalf("err EWMA %.3f did not decay below the clear bound", f.ErrEWMA)
		}
	})

	t.Run("miss_streak", func(t *testing.T) {
		s, fired, resolved := run(noBudget, []telemetry.Event{
			finishEvent(0, true, 0, 10, 5),
			finishEvent(1, false, 1, 11, 5),
			finishEvent(2, false, 1, 11, 5),
			finishEvent(3, false, 1, 11, 5),
			finishEvent(4, false, 1, 11, 5), // streak 4: no second alert
			finishEvent(5, true, 0, 10, 5),
		})
		check(t, "firings", fired, []alertAt{{"miss-streak", 3}})
		check(t, "resolutions", resolved, []alertAt{{"miss-streak", 5}})
		if s.SLO.CurStreak != 0 || s.SLO.MaxStreak != 4 {
			t.Fatalf("streak tracking wrong: %+v", s.SLO)
		}
	})

	t.Run("pe_loss", func(t *testing.T) {
		down := func(inst, pe, alive int, reason string) telemetry.Event {
			return telemetry.Event{Kind: telemetry.KindPEDown, Instance: inst, PE: pe, Alive: alive, Reason: reason}
		}
		s, fired, resolved := run(noBudget, []telemetry.Event{
			down(3, 1, 2, "transient"),
			down(4, 1, 2, "transient"), // still down: no second alert
			{Kind: telemetry.KindPEUp, Instance: 6, PE: 1, Alive: 3},
			down(9, 1, 2, "transient"),  // every PE was back: alerts again
			down(12, 0, 1, "permanent"), // another PE while one is down: no new alert
		})
		check(t, "firings", fired, []alertAt{{"pe-loss", 3}, {"pe-loss", 9}})
		check(t, "resolutions", resolved, []alertAt{{"pe-loss", 6}})
		if s.Availability == nil || len(s.Availability.PEs) != 2 {
			t.Fatalf("availability = %+v, want 2 PE records", s.Availability)
		}
		pe0, pe1 := s.Availability.PEs[0], s.Availability.PEs[1]
		if pe0.PE != 0 || !pe0.Permanent || !pe0.Down || pe0.Outages != 1 {
			t.Fatalf("PE 0 record = %+v", pe0)
		}
		if pe1.PE != 1 || pe1.Permanent || !pe1.Down || pe1.Outages != 3 {
			t.Fatalf("PE 1 record = %+v", pe1)
		}
		report := s.Report()
		for _, want := range []string{"hardware availability", "DEAD (permanent)", "2 alerts"} {
			if !strings.Contains(report, want) {
				t.Fatalf("report missing %q:\n%s", want, report)
			}
		}
	})

	t.Run("miss_budget", func(t *testing.T) {
		_, fired, _ := run(health.SLO{MaxMissRate: 0.25}, []telemetry.Event{
			finishEvent(0, true, 0, 10, 5),
			finishEvent(1, true, 0, 10, 5),
			finishEvent(2, false, 1, 11, 5), // 1/3 > 0.25: budget burn 1.33
		})
		check(t, "firings", fired, []alertAt{{"miss-budget", 2}})
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
	a := health.New(health.Options{
		SLO: health.SLO{MaxMissRate: 0.25, MaxAvgEnergy: 100},
	})
	a.Record(finishEvent(0, true, 0, 10, 50))
	s := a.Health()
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
		a.Record(finishEvent(i, i%2 == 0, 2, 12, 50))
	}
	s = a.Health()
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

// TestHotspotAttribution drives two instances of synthetic slices and checks
// ranking order and critical-path attribution, including the
// fallback-supersedes-primary rule.
func TestHotspotAttribution(t *testing.T) {
	a := health.New(health.Options{})
	slice := func(inst, task int, name string, pe int, start, end, energy float64, phase string) telemetry.Event {
		return telemetry.Event{
			Kind: telemetry.KindTaskSlice, Instance: inst, Task: task, Name: name,
			PE: pe, Start: start, End: end, Energy: energy, Phase: phase,
		}
	}
	// Instance 0: task 1 ends last on the primary timeline.
	a.Record(slice(0, 0, "src", 0, 0, 4, 2, ""))
	a.Record(slice(0, 1, "dec", 1, 4, 10, 3, ""))
	a.Record(telemetry.Event{
		Kind: telemetry.KindCommSlice, Instance: 0, Edge: 0, Task: 0, Task2: 1,
		PE: 0, PE2: 1, Start: 4, End: 5, Energy: 1,
	})
	a.Record(finishEvent(0, true, 0, 10, 5))
	// Instance 1: primary ends with task 1, but a fallback replay ran and its
	// terminal is task 0 — the fallback wins the critical credit.
	a.Record(slice(1, 1, "dec", 1, 0, 9, 3, ""))
	a.Record(slice(1, 0, "src", 0, 0, 6, 2, telemetry.PhaseFallback))
	a.Record(finishEvent(1, false, 1, 11, 5))

	s := a.Health()
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
	a := health.New(health.Options{SLO: health.SLO{MaxMissRate: -1}})
	a.Record(telemetry.Event{Kind: telemetry.KindReschedule, Instance: 0, Reason: "initial"})
	a.Record(telemetry.Event{Kind: telemetry.KindReschedule, Instance: 3, Reason: "drift", CacheHit: true})
	// Fill the 64-entry timeline so the firing below is entry 65.
	for i := 0; i < 60; i++ {
		a.Record(telemetry.Event{Kind: telemetry.KindReschedule, Instance: 4, Reason: "drift"})
	}
	a.Record(telemetry.Event{Kind: telemetry.KindGuardLevel, Instance: 4, Level: 2, Level2: 1})
	a.Record(telemetry.Event{Kind: telemetry.KindFallback, Instance: 5, Met: true})
	a.Record(finishEvent(5, false, 1, 11, 5))
	a.Record(telemetry.Event{Kind: telemetry.KindAlertFiring, Instance: 6, Name: "miss-streak",
		Reason: "adaptive.health.miss_streak", Value: 3, Threshold: 3})
	s := a.Health()
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
