package health_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/health"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// writeFixture encodes a captured stream as a committed JSONL fixture.
func writeFixture(t *testing.T, name string, events []telemetry.Event) {
	t.Helper()
	var buf bytes.Buffer
	jr := telemetry.NewJSONLRecorder(&buf)
	for _, e := range events {
		jr.Record(e)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// loadFixture reads a committed JSONL fixture through the same ReadJSONL
// path `ctgsched explain` uses.
func loadFixture(t *testing.T, name string) []telemetry.Event {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	events, err := telemetry.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// adaptiveProvenanceEvents captures a recovery-enabled adaptive run under an
// overrun fault plan: the stream carries drift reschedules, fallback replays
// and circuit-breaker moves, all seq/cause-linked. Non-nil rules attach a
// series store that evaluates them once per instance, so rule firings join
// the stream too.
func adaptiveProvenanceEvents(t *testing.T, rules []series.Rule) []telemetry.Event {
	t.Helper()
	cfg := tgff.Config{Seed: 65, Nodes: 18, PEs: 3, Branches: 2, Category: tgff.ForkJoin}
	g0, p, err := tgff.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.TightenDeadline(g0, p, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.New(faults.Spec{Seed: 42, OverrunProb: 0.25, OverrunFactor: 1.2},
		g.NumTasks(), cfg.PEs)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewMemoryRecorder()
	opts := core.Options{
		Window: 10, Threshold: 0.1,
		Faults: plan, Recovery: true, GuardBand: 0.2,
		Recorder: rec,
	}
	if rules != nil {
		opts.Series = series.NewStore(series.StoreOptions{Registry: telemetry.NewRegistry(), Rules: rules})
		opts.Metrics = opts.Series.Registry()
	}
	m, err := core.New(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(trace.Fluctuating(g, 7, 60, 0.45)); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// TestExplainGoldens is the acceptance test of `ctgsched explain`: from
// committed captured streams, the engine must reconstruct the complete
// trigger → decision → effects chain for a drift reschedule, a fallback
// activation, and a series-rule alert firing. -update regenerates the
// fixtures and goldens together (span latencies are wall-clock, so they are
// only stable inside one captured fixture).
func TestExplainGoldens(t *testing.T) {
	if *update {
		writeFixture(t, "provenance_adaptive.jsonl", adaptiveProvenanceEvents(t, nil))
		rs, err := series.LoadRules(filepath.Join("..", "..", "examples", "watch", "rules.json"))
		if err != nil {
			t.Fatal(err)
		}
		writeFixture(t, "provenance_alert.jsonl", adaptiveProvenanceEvents(t, rs.Rules))
	}

	adaptive := loadFixture(t, "provenance_adaptive.jsonl")
	alert := loadFixture(t, "provenance_alert.jsonl")

	t.Run("reschedule", func(t *testing.T) {
		// Pin a drift-triggered reschedule: the chain must run
		// instance_start → window_estimate → reschedule.
		var seq uint64
		for _, e := range adaptive {
			if e.Kind == telemetry.KindReschedule && e.Reason == "drift" {
				seq = e.Seq
			}
		}
		if seq == 0 {
			t.Fatal("fixture carries no drift reschedule")
		}
		x, err := health.Explain(adaptive, health.ExplainQuery{Seq: seq, Instance: -1})
		if err != nil {
			t.Fatal(err)
		}
		assertChainKinds(t, x, telemetry.KindInstanceStart, telemetry.KindEstimate, telemetry.KindReschedule)
		checkGolden(t, "explain_reschedule.golden", x.Render())
	})

	t.Run("fallback", func(t *testing.T) {
		x, err := health.Explain(adaptive, health.ExplainQuery{Kind: "fallback", Instance: -1})
		if err != nil {
			t.Fatal(err)
		}
		assertChainKinds(t, x, telemetry.KindInstanceStart, telemetry.KindFallback)
		checkGolden(t, "explain_fallback.golden", x.Render())
	})

	t.Run("alert", func(t *testing.T) {
		// A series-rule firing chains to the instance_finish its triggering
		// sample was taken at, which chains to that instance's start.
		x, err := health.Explain(alert, health.ExplainQuery{Kind: "alert_firing", Instance: -1})
		if err != nil {
			t.Fatal(err)
		}
		assertChainKinds(t, x, telemetry.KindInstanceStart, telemetry.KindInstanceFinish, telemetry.KindAlertFiring)
		checkGolden(t, "explain_alert.golden", x.Render())
	})

	t.Run("list", func(t *testing.T) {
		ds := health.Decisions(adaptive)
		if len(ds) == 0 {
			t.Fatal("no decisions listed")
		}
		for _, d := range ds {
			if d.Kind == telemetry.KindTaskSlice || d.Kind == telemetry.KindEstimate {
				t.Fatalf("non-decision kind %s listed", d.Kind)
			}
		}
	})
}

// assertChainKinds checks the causal chain passes through the given kinds in
// order (other links may sit between them).
func assertChainKinds(t *testing.T, x *health.Explanation, kinds ...telemetry.Kind) {
	t.Helper()
	i := 0
	for _, e := range x.Chain {
		if i < len(kinds) && e.Kind == kinds[i] {
			i++
		}
	}
	if i != len(kinds) {
		var got []string
		for _, e := range x.Chain {
			got = append(got, string(e.Kind))
		}
		t.Fatalf("chain %v missing expected subsequence %v", got, kinds)
	}
}

// TestExplainErrors covers the engine's failure modes.
func TestExplainErrors(t *testing.T) {
	unsequenced := []telemetry.Event{
		{Kind: telemetry.KindReschedule, Instance: 0, Reason: "initial"},
	}
	if _, err := health.Explain(unsequenced, health.ExplainQuery{Instance: -1}); err == nil ||
		!strings.Contains(err.Error(), "no seq ids") {
		t.Fatalf("unsequenced stream accepted: %v", err)
	}
	sequenced := []telemetry.Event{
		{Kind: telemetry.KindReschedule, Instance: 0, Reason: "initial", Seq: 1},
	}
	if _, err := health.Explain(sequenced, health.ExplainQuery{Seq: 99}); err == nil ||
		!strings.Contains(err.Error(), "no event with seq") {
		t.Fatalf("unknown seq accepted: %v", err)
	}
	if _, err := health.Explain(sequenced, health.ExplainQuery{Kind: "fallback", Instance: -1}); err == nil ||
		!strings.Contains(err.Error(), "no decision matches") {
		t.Fatalf("unmatched query accepted: %v", err)
	}
}

// TestPipelineSection pins the span accumulator's arithmetic and ordering.
func TestPipelineSection(t *testing.T) {
	span := func(phase string, us float64) telemetry.Event {
		return telemetry.Event{Kind: telemetry.KindSpan, Name: phase, Value: us}
	}
	s := health.Analyze([]telemetry.Event{
		span("stretch", 30), span("dls", 100), span("dls", 300), span("diff", 7),
	}, health.Options{})
	if s.Pipeline == nil {
		t.Fatal("pipeline section missing")
	}
	if s.Pipeline.Spans != 4 || len(s.Pipeline.Phases) != 3 {
		t.Fatalf("pipeline shape wrong: %+v", s.Pipeline)
	}
	// Pipeline order, not alphabetical: diff before dls before stretch.
	if s.Pipeline.Phases[0].Phase != "diff" || s.Pipeline.Phases[1].Phase != "dls" ||
		s.Pipeline.Phases[2].Phase != "stretch" {
		t.Fatalf("phase order wrong: %+v", s.Pipeline.Phases)
	}
	dls := s.Pipeline.Phases[1]
	if dls.Count != 2 || dls.Mean != 200 || dls.Min != 100 || dls.Max != 300 || dls.Total != 400 {
		t.Fatalf("dls aggregation wrong: %+v", dls)
	}
	// A spanless stream keeps the section (and its report block) absent.
	s2 := health.Analyze([]telemetry.Event{
		{Kind: telemetry.KindInstanceFinish, Met: true, Makespan: 10},
	}, health.Options{})
	if s2.Pipeline != nil {
		t.Fatal("pipeline section present without spans")
	}
	if strings.Contains(s2.Report(), "pipeline") {
		t.Fatal("report renders a pipeline block without spans")
	}
}
