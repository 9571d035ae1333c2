package exp

import (
	"testing"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/health"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
)

// healthGauges are the manager's live health quantities, in the order
// analyzedGauges lists their offline values.
var healthGauges = [4]string{
	"adaptive.health.drift_err",
	"adaptive.health.miss_streak",
	"adaptive.health.max_miss_streak",
	"adaptive.health.pes_down",
}

// analyzedGauges is what health.Analyze reports for each of healthGauges:
// the worst per-fork error EWMA, the current and longest miss streaks, and
// the number of PEs marked down.
func analyzedGauges(s health.Snapshot) [4]float64 {
	worst := 0.0
	for _, f := range s.Drift {
		worst = max(worst, f.ErrEWMA)
	}
	down := 0
	if s.Availability != nil {
		for _, pe := range s.Availability.PEs {
			if pe.Down {
				down++
			}
		}
	}
	return [4]float64{worst, float64(s.SLO.CurStreak), float64(s.SLO.MaxStreak), float64(down)}
}

// checkHealthGauges compares, at every instance of one stream, the health
// gauges the store sampled at that instance with health.Analyze of the
// stream up to the instance's finish event — bit for bit.
func checkHealthGauges(t *testing.T, name string, events []telemetry.Event, st *series.Store) {
	t.Helper()
	var rings [4]*series.Series
	for i, g := range healthGauges {
		if rings[i] = st.Series(g); rings[i] == nil {
			t.Fatalf("%s: gauge %s never sampled", name, g)
		}
	}
	n := 0
	for i, e := range events {
		if e.Kind != telemetry.KindInstanceFinish {
			continue
		}
		want := analyzedGauges(health.Analyze(events[:i+1], health.Options{}))
		for g, ring := range rings {
			tick, got := ring.At(n)
			if tick != e.Instance || got != want[g] {
				t.Fatalf("%s instance %d: %s sampled %v at tick %d, analysis gives %v",
					name, e.Instance, healthGauges[g], got, tick, want[g])
			}
		}
		n++
	}
	if n == 0 || n != st.Ticks() {
		t.Fatalf("%s: %d finished instances for %d ticks", name, n, st.Ticks())
	}
}

// TestHealthGaugesMatchAnalyzer is the oracle of the manager's health
// gauges: the offline analyzer replays the same arithmetic from the recorded
// stream, so at every instance the two must agree. It covers the guarded
// fault campaign on both workloads (fallbacks, overruns, breaker moves) and
// an MPEG run under a failure timeline (PEs going down and coming back).
func TestHealthGaugesMatchAnalyzer(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes every prefix of several hundred-instance streams")
	}
	_, tel, err := faultCampaignN(DefaultCampaignSpec(), DefaultCampaignGuard, campaignTestVectors, &Observe{})
	if err != nil {
		t.Fatal(err)
	}
	for name, rec := range tel.Recorders {
		checkHealthGauges(t, name, rec.Events(), tel.Series[name])
	}

	workloads, err := campaignWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[0]
	tl, err := faults.NewTimeline(faults.FailureSpec{Seed: 3, PEFailProb: 0.05, PERepair: 6}, w.p.NumPEs())
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewMemoryRecorder()
	st := series.NewStore(series.StoreOptions{Registry: telemetry.NewRegistry()})
	m, err := core.New(w.g, w.p, core.Options{
		Window: 20, Threshold: 0.1, Recovery: true, Failures: tl,
		Recorder: rec, Metrics: st.Registry(), Series: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run(w.vec[:200])
	if err != nil {
		t.Fatal(err)
	}
	if stats.Remaps < 2 {
		t.Fatalf("failure timeline remapped %d times; the run exercises no outage", stats.Remaps)
	}
	checkHealthGauges(t, "mpeg under failures", rec.Events(), st)
}
