package exp

import (
	"strings"
	"testing"

	"ctgdvfs/internal/faults"
)

// TestFailoverCampaignAcceptance pins the PR's headline claim: under a
// seeded transient-outage timeline, the adaptive re-mapping runtime misses
// strictly fewer deadlines than the static schedule on every workload, the
// static arm's deadlocks are all topology-attributable, and the adaptive arm
// actually re-mapped during the degraded windows.
func TestFailoverCampaignAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("failover campaign replays hundreds of degraded instances per runtime")
	}
	spec := faults.FailureSpec{Seed: 42, PEFailProb: 0.05, PERepair: 10}
	r, err := failoverCampaignN([]faults.FailureSpec{spec}, 150, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 3 {
		t.Fatalf("cells = %d, want 3 (mpeg, cruise, wlan)", len(r.Cells))
	}
	seen := map[string]bool{}
	for _, c := range r.Cells {
		seen[c.Workload] = true
		if c.DegradedInstances == 0 {
			t.Fatalf("%s: timeline produced no degraded instances", c.Workload)
		}
		if c.Remaps < 2 {
			t.Fatalf("%s: remaps = %d, want ≥ 2 (degrade + restore)", c.Workload, c.Remaps)
		}
		if c.AdaptiveMisses >= c.StaticMisses {
			t.Fatalf("%s: adaptive misses %d not below static %d",
				c.Workload, c.AdaptiveMisses, c.StaticMisses)
		}
		if c.StaticTopoMiss == 0 {
			t.Fatalf("%s: static baseline never deadlocked despite outages", c.Workload)
		}
		if c.StaticTopoMiss > c.StaticMisses {
			t.Fatalf("%s: topo misses %d exceed total misses %d",
				c.Workload, c.StaticTopoMiss, c.StaticMisses)
		}
	}
	for _, w := range []string{"mpeg", "cruise", "wlan"} {
		if !seen[w] {
			t.Fatalf("workload %s missing from campaign", w)
		}
	}
	checkGolden(t, "failover.golden", r.Render())
}

// TestFailoverCampaignSpecScripted replays a scripted permanent death from a
// spec-file-style FailureSpec: one cell per workload, rendered as such.
func TestFailoverCampaignSpecScripted(t *testing.T) {
	if testing.Short() {
		t.Skip("failover campaign replays hundreds of degraded instances per runtime")
	}
	spec := faults.FailureSpec{
		Events: []faults.FailureEvent{{Kind: faults.EventPE, PE: 0, Instance: 30}},
	}
	r, err := failoverCampaignN([]faults.FailureSpec{spec}, 80, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		if want := c.Vectors - 30; c.DegradedInstances != want {
			t.Fatalf("%s: degraded = %d, want %d (permanent death at 30)",
				c.Workload, c.DegradedInstances, want)
		}
		if c.Remaps != 1 {
			t.Fatalf("%s: remaps = %d, want exactly 1 for a permanent death", c.Workload, c.Remaps)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "scripted") {
		t.Fatalf("scripted campaign not labeled as such:\n%s", out)
	}
	checkGolden(t, "failover-scripted.golden", out)
	// The invalid spec is rejected before any workload is built.
	if _, err := FailoverCampaignSpec(faults.FailureSpec{PEFailProb: 2}); err == nil {
		t.Fatal("FailoverCampaignSpec accepted an out-of-range probability")
	}
}
