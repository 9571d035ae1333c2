package health

import (
	"strings"
	"testing"

	"ctgdvfs/internal/telemetry"
)

// TestSeriesAlertsSection checks alert_firing/alert_resolved events from the
// rule engine surface as their own snapshot section, raise analyzer alerts,
// and render in the report — and that streams without them stay unchanged.
func TestSeriesAlertsSection(t *testing.T) {
	events := []telemetry.Event{
		{Kind: telemetry.KindAlertFiring, Instance: 5, Seq: 2, Cause: 1,
			Name: "miss-rate-high", Reason: "adaptive.miss_rate_window", Value: 0.3, Threshold: 0.11, Level: 1},
		{Kind: telemetry.KindAlertResolved, Instance: 9, Seq: 3, Cause: 2,
			Name: "miss-rate-high", Reason: "adaptive.miss_rate_window", Value: 0.05},
		{Kind: telemetry.KindAlertFiring, Instance: 12, Seq: 4,
			Name: "guard-escalated", Reason: "adaptive.guard_level", Value: 2, Threshold: 2},
	}
	s := Analyze(events, Options{})
	sa := s.SeriesAlerts
	if sa == nil {
		t.Fatal("SeriesAlerts section missing")
	}
	if sa.Firings != 2 || sa.Resolved != 1 {
		t.Fatalf("firings/resolved = %d/%d, want 2/1", sa.Firings, sa.Resolved)
	}
	if len(sa.Rules) != 2 || sa.Rules[0].Rule != "guard-escalated" || sa.Rules[1].Rule != "miss-rate-high" {
		t.Fatalf("rules not sorted by name: %+v", sa.Rules)
	}
	if !sa.Rules[0].Firing || sa.Rules[1].Firing {
		t.Fatalf("firing states wrong: %+v", sa.Rules)
	}
	if sa.Rules[1].Value != 0.05 || sa.Rules[1].Threshold != 0.11 {
		t.Fatalf("resolved rule keeps last value/threshold: %+v", sa.Rules[1])
	}
	// Each firing raises one analyzer alert of type "rule".
	if s.AlertsTotal != 2 {
		t.Fatalf("AlertsTotal = %d, want 2", s.AlertsTotal)
	}
	for _, al := range s.Alerts {
		if al.Type != "rule" {
			t.Fatalf("alert type %q, want rule", al.Type)
		}
	}

	report := s.Report()
	for _, want := range []string{
		"metric rule alerts",
		"firings 2  resolved 1",
		"[FIRING]",
		"rule miss-rate-high",
		"alert_firing",
		"alert_ok",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	// A stream without rule events keeps the section (and report) absent.
	empty := Analyze([]telemetry.Event{{Kind: telemetry.KindInstanceStart}}, Options{})
	if empty.SeriesAlerts != nil {
		t.Fatal("SeriesAlerts must be nil without alert events")
	}
	if strings.Contains(empty.Report(), "metric rule alerts") {
		t.Fatal("rule section rendered for a rule-less stream")
	}
}

// TestDescribeAlertEvents pins the explain vocabulary of the new kinds.
func TestDescribeAlertEvents(t *testing.T) {
	fire := telemetry.Event{Kind: telemetry.KindAlertFiring, Name: "hot",
		Reason: "adaptive.miss_rate_window", Value: 0.3, Threshold: 0.11, Level: 2}
	if got := Describe(fire); !strings.Contains(got, `alert "hot" firing`) ||
		!strings.Contains(got, "0.3 crossed 0.11") {
		t.Fatalf("firing description %q", got)
	}
	res := telemetry.Event{Kind: telemetry.KindAlertResolved, Name: "hot",
		Reason: "adaptive.miss_rate_window", Value: 0.02}
	if got := Describe(res); !strings.Contains(got, `alert "hot" resolved`) {
		t.Fatalf("resolve description %q", got)
	}
}
