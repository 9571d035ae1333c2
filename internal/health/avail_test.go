package health

import (
	"strings"
	"testing"

	"ctgdvfs/internal/telemetry"
)

func TestAvailabilityRemapAndLinkAccounting(t *testing.T) {
	s := Analyze([]telemetry.Event{
		{Kind: telemetry.KindLinkDown, Instance: 2, PE: 0, PE2: 1},
		{Kind: telemetry.KindRemap, Instance: 2, Reason: "degraded", Alive: 2},
		{Kind: telemetry.KindLinkUp, Instance: 5, PE: 0, PE2: 1},
		{Kind: telemetry.KindRemap, Instance: 5, Reason: "restored", Alive: 3},
	}, Options{})
	av := s.Availability
	if av == nil || av.LinkDowns != 1 || av.Remaps != 1 || av.Restores != 1 {
		t.Fatalf("availability = %+v", av)
	}
	// Link-only degradation takes no PE down.
	if len(av.PEs) != 0 {
		t.Fatalf("PE records %+v, want none", av.PEs)
	}
}

func TestHealthyStreamOmitsAvailability(t *testing.T) {
	s := Analyze([]telemetry.Event{{Kind: telemetry.KindInstanceFinish, Instance: 0, Met: true}}, Options{})
	if s.Availability != nil {
		t.Fatal("availability section present without availability events")
	}
	if strings.Contains(s.Report(), "hardware availability") {
		t.Fatal("report renders availability section without data")
	}
}
