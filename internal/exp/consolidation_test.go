package exp

import (
	"strings"
	"testing"
)

// TestConsolidationCampaignShort runs the sweep at reduced rounds and checks
// the campaign's structural claims: every cell carries both arms, the
// ungoverned baseline never sheds and busts every sub-P0 cap, and at every
// degradation-forcing cap the governed fleet actually degrades while keeping
// the most-critical tenant running every round with zero misses.
func TestConsolidationCampaignShort(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet sweep")
	}
	rounds := 80
	res, _, err := ConsolidationCampaign(rounds, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(consolidationMixes()) * len(ConsolidationCapFractions)
	if len(res.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(res.Cells), wantCells)
	}

	for _, c := range res.Cells {
		u, g := c.Ungoverned, c.Governed
		if u.Instances != rounds*c.Tenants || u.ShedRounds != 0 {
			t.Errorf("%s@%.2f: ungoverned ran %d instances (shed %d), want %d and 0",
				c.Mix, c.CapFrac, u.Instances, u.ShedRounds, rounds*c.Tenants)
		}
		if g.HiInstances != rounds {
			t.Errorf("%s@%.2f: most-critical tenant ran %d rounds, want %d",
				c.Mix, c.CapFrac, g.HiInstances, rounds)
		}
		if c.CapFrac < 1 {
			if u.MaxWindowPower <= c.Cap || u.WindowsOverCap == 0 {
				t.Errorf("%s@%.2f: ungoverned peak %.2f should bust cap %.2f (over %d)",
					c.Mix, c.CapFrac, u.MaxWindowPower, c.Cap, u.WindowsOverCap)
			}
			if g.MaxLevel == 0 {
				t.Errorf("%s@%.2f: governed fleet never degraded under a sub-P0 cap",
					c.Mix, c.CapFrac)
			}
			if g.HiMisses != 0 {
				t.Errorf("%s@%.2f: governed most-critical tenant missed %d deadlines",
					c.Mix, c.CapFrac, g.HiMisses)
			}
		}
	}

	// At least one degradation-forcing cap must be held outright: no window
	// over cap, with the ladder engaged — the campaign's headline claim.
	held := false
	for _, c := range res.Cells {
		if c.CapFrac < 1 && c.Governed.WindowsOverCap == 0 && c.Governed.MaxLevel > 0 {
			held = true
		}
	}
	if !held {
		t.Error("no cell holds a degradation-forcing cap with zero over-cap windows")
	}

	out := res.Render()
	for _, want := range []string{"Consolidation campaign", "mpeg>cruise>wlan", "gov hi-miss"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestConsolidationObservedTelemetry checks the observed campaign wires one
// recorder and health analyzer per cell and that governed degradation shows
// up in the power section of the cell's health snapshot.
func TestConsolidationObservedTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet sweep")
	}
	res, tel, err := ConsolidationCampaign(60, nil, &Observe{})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(consolidationMixes()) * len(ConsolidationCapFractions)
	wantRecs := 0 // one fleet stream per cell plus one per tenant
	for _, m := range consolidationMixes() {
		wantRecs += (1 + len(m.tenants)) * len(ConsolidationCapFractions)
	}
	if len(tel.Recorders) != wantRecs || len(tel.Health) != wantCells {
		t.Fatalf("telemetry streams = %d/%d, want %d/%d",
			len(tel.Recorders), len(tel.Health), wantRecs, wantCells)
	}
	sawPower := false
	for _, c := range res.Cells {
		key := consolidationCellKey(c.Mix, c.CapFrac, false)
		rec, h := tel.Recorders[key], tel.Health[key]
		if rec == nil || h == nil {
			t.Fatalf("cell %s missing telemetry", key)
		}
		if c.Governed.MaxLevel > 0 {
			if len(rec.Events()) == 0 {
				t.Errorf("cell %s degraded but recorded no events", key)
			}
			if ps := h.Health().Power; ps != nil && ps.MaxLevel > 0 {
				sawPower = true
			}
		}
	}
	if !sawPower {
		t.Error("no degraded cell surfaced a power section in its health snapshot")
	}
}

func TestExtendPlatformTilesNative(t *testing.T) {
	ws, err := campaignWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	native := ws[0].p
	ext, err := extendPlatform(native, ConsolidationPEs)
	if err != nil {
		t.Fatal(err)
	}
	if ext.NumPEs() != ConsolidationPEs || ext.NumTasks() != native.NumTasks() {
		t.Fatalf("extended shape %d PEs / %d tasks", ext.NumPEs(), ext.NumTasks())
	}
	n := native.NumPEs()
	for task := 0; task < native.NumTasks(); task++ {
		for pe := 0; pe < ConsolidationPEs; pe++ {
			if ext.WCET(task, pe) != native.WCET(task, pe%n) ||
				ext.Energy(task, pe) != native.Energy(task, pe%n) {
				t.Fatalf("task %d PE %d does not tile native PE %d", task, pe, pe%n)
			}
		}
	}
	if _, err := extendPlatform(ext, n); err == nil {
		t.Fatal("shrinking extension accepted")
	}
}
