package health

import (
	"strings"
	"testing"

	"ctgdvfs/internal/telemetry"
)

func TestAvailabilityRemapAndLinkAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := New(Options{Metrics: reg})
	a.Record(telemetry.Event{Kind: telemetry.KindLinkDown, Instance: 2, PE: 0, PE2: 1})
	a.Record(telemetry.Event{Kind: telemetry.KindRemap, Instance: 2, Reason: "degraded", Alive: 2})
	a.Record(telemetry.Event{Kind: telemetry.KindLinkUp, Instance: 5, PE: 0, PE2: 1})
	a.Record(telemetry.Event{Kind: telemetry.KindRemap, Instance: 5, Reason: "restored", Alive: 3})

	s := a.Health()
	av := s.Availability
	if av == nil || av.LinkDowns != 1 || av.Remaps != 1 || av.Restores != 1 {
		t.Fatalf("availability = %+v", av)
	}
	// Link-only degradation takes no PE down.
	if got := reg.Snapshot().Gauges["adaptive.health.pes_down"]; got != 0 {
		t.Fatalf("pes_down = %v, want 0", got)
	}
}

func TestHealthyStreamOmitsAvailability(t *testing.T) {
	a := New(Options{})
	a.Record(telemetry.Event{Kind: telemetry.KindInstanceFinish, Instance: 0, Met: true})
	s := a.Health()
	if s.Availability != nil {
		t.Fatal("availability section present without availability events")
	}
	if strings.Contains(s.Report(), "hardware availability") {
		t.Fatal("report renders availability section without data")
	}
}
