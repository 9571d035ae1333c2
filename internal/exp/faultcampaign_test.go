package exp

import (
	"reflect"
	"strings"
	"testing"

	"ctgdvfs/internal/par"
	"ctgdvfs/internal/telemetry"
)

// campaignTestVectors truncates the measured sequences so the acceptance
// tests stay affordable under the race detector; the qualitative contrast is
// already unambiguous at this length.
const campaignTestVectors = 250

// TestFaultCampaignAcceptance pins the PR's headline claim on both
// application workloads: under the seeded 20%-overrun plan the guarded
// runtime with fallback recovery misses strictly less than the unguarded
// adaptive runtime AND spends strictly less energy than the always-full-speed
// baseline, with the recovery counters visible in the row.
func TestFaultCampaignAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign replays hundreds of faulty instances per runtime")
	}
	r, _, err := faultCampaignN(DefaultCampaignSpec(), DefaultCampaignGuard, campaignTestVectors, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("got %d workloads, want 2", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Overruns == 0 {
			t.Errorf("%s: fault plan injected no overruns", row.Workload)
		}
		if row.UnguardedMisses == 0 {
			t.Errorf("%s: unguarded runtime never missed; the campaign has no contrast", row.Workload)
		}
		if row.GuardedMisses >= row.UnguardedMisses {
			t.Errorf("%s: guarded misses %d not strictly below unguarded %d",
				row.Workload, row.GuardedMisses, row.UnguardedMisses)
		}
		if row.GuardedEnergy >= row.FullSpeedEnergy {
			t.Errorf("%s: guarded energy %v not strictly below full-speed %v",
				row.Workload, row.GuardedEnergy, row.FullSpeedEnergy)
		}
		if row.FallbackActivations == 0 {
			t.Errorf("%s: fallback never activated", row.Workload)
		}
		if row.MissesAvoided > row.FallbackActivations {
			t.Errorf("%s: misses avoided %d exceeds activations %d",
				row.Workload, row.MissesAvoided, row.FallbackActivations)
		}
		if row.GuardedMisses+row.MissesAvoided > row.FallbackActivations+row.UnguardedMisses {
			t.Errorf("%s: counters inconsistent: %+v", row.Workload, row)
		}
	}
	out := r.Render()
	for _, want := range []string{"Fault campaign", "Guarded+fallback", "mpeg", "cruise"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestFaultCampaignObservedHealth checks the observed campaign carries one
// live health analyzer per workload, fanned into the same stream as the
// recorder, and that attaching it changes no campaign number.
func TestFaultCampaignObservedHealth(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign replays hundreds of faulty instances per runtime")
	}
	plain, _, err := faultCampaignN(DefaultCampaignSpec(), DefaultCampaignGuard, campaignTestVectors, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	observed, tel, err := faultCampaignN(DefaultCampaignSpec(), DefaultCampaignGuard, campaignTestVectors, &Observe{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Rows, observed.Rows) {
		t.Fatalf("health monitoring changed campaign rows:\n%+v\n%+v", plain.Rows, observed.Rows)
	}
	for _, row := range observed.Rows {
		h := tel.Health[row.Workload]
		if h == nil {
			t.Fatalf("%s: no health analyzer", row.Workload)
		}
		s := h.Health()
		if s.Instances != row.Vectors {
			t.Errorf("%s: analyzer saw %d instances, want %d", row.Workload, s.Instances, row.Vectors)
		}
		if s.SLO.Misses != row.GuardedMisses {
			t.Errorf("%s: analyzer counted %d misses, want %d", row.Workload, s.SLO.Misses, row.GuardedMisses)
		}
		if s.SLO.Fallbacks != row.FallbackActivations {
			t.Errorf("%s: analyzer counted %d fallbacks, want %d",
				row.Workload, s.SLO.Fallbacks, row.FallbackActivations)
		}
		if s.SLO.MaxGuardLevel != row.MaxGuardLevel {
			t.Errorf("%s: analyzer max guard level %d, want %d",
				row.Workload, s.SLO.MaxGuardLevel, row.MaxGuardLevel)
		}
		if len(s.Hotspots.Tasks) == 0 || len(s.Drift) == 0 {
			t.Errorf("%s: analyzer missing hotspot/drift data", row.Workload)
		}
		// Raised alerts interleave into the workload's trace stream as typed
		// events, exactly as many as the analyzer counted.
		typed := tel.Recorders[row.Workload].CountByKind()[telemetry.KindHealthAlert]
		if typed != s.AlertsTotal {
			t.Errorf("%s: %d typed alert events vs %d alerts raised", row.Workload, typed, s.AlertsTotal)
		}
	}
	if reg.Snapshot().Counters["adaptive.instances"] == 0 {
		t.Error("campaign registry saw no instances")
	}
}

// TestFaultCampaignDeterministicAcrossWorkerBounds re-runs the campaign at
// several worker bounds: the stateless fault hash plus the index-addressed
// parallel helpers must make every number bit-for-bit identical.
func TestFaultCampaignDeterministicAcrossWorkerBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign replays hundreds of faulty instances per runtime")
	}
	var base *FaultCampaignResult
	for _, workers := range []int{1, 4} {
		prev := par.SetLimit(workers)
		r, _, err := faultCampaignN(DefaultCampaignSpec(), DefaultCampaignGuard, campaignTestVectors, nil)
		par.SetLimit(prev)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = r
			continue
		}
		if !reflect.DeepEqual(base.Rows, r.Rows) {
			t.Fatalf("workers=%d diverged:\n%+v\n%+v", workers, base.Rows, r.Rows)
		}
	}
}
