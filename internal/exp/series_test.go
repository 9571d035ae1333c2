package exp

import (
	"reflect"
	"testing"

	"ctgdvfs/internal/health"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
)

// TestFaultCampaignMonitoredAlerts checks the full monitoring stack over the
// fault campaign: sampling changes no campaign number, every workload's store
// ticks once per instance, the miss-rate rule fires with Seq/Cause
// provenance, and the firing's cause chain resolves through `explain`.
func TestFaultCampaignMonitoredAlerts(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign replays hundreds of faulty instances per runtime")
	}
	plain, err := plainCampaign()
	if err != nil {
		t.Fatal(err)
	}
	clear := 0.08
	obs := &Observe{Rules: []series.Rule{
		{Name: "miss-rate-high", Metric: "adaptive.miss_rate_window", Value: 0.11, Clear: &clear},
	}}
	observed, tel, err := faultCampaignN(DefaultCampaignSpec(), DefaultCampaignGuard, campaignTestVectors, obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Rows, observed.Rows) {
		t.Fatalf("series sampling changed campaign rows:\n%+v\n%+v", plain.Rows, observed.Rows)
	}

	firings := 0
	for name, st := range tel.Series {
		if st.Ticks() != campaignTestVectors {
			t.Errorf("%s: store ticked %d times for %d instances", name, st.Ticks(), campaignTestVectors)
		}
		if s := st.Series("adaptive.miss_rate_window"); s == nil {
			t.Errorf("%s: miss-rate window gauge not sampled", name)
		}

		rec := tel.Recorders[name]
		if rec == nil {
			t.Fatalf("%s: no recorder", name)
		}
		events := rec.Events()
		bySeq := make(map[uint64]telemetry.Event, len(events))
		for _, e := range events {
			if e.Seq != 0 {
				bySeq[e.Seq] = e
			}
		}
		for _, e := range events {
			if e.Kind != telemetry.KindAlertFiring {
				continue
			}
			firings++
			if e.Name != "miss-rate-high" || e.Value <= 0.11 {
				t.Errorf("%s: malformed firing %+v", name, e)
			}
			if e.Seq == 0 || e.Cause == 0 {
				t.Errorf("%s: firing lacks Seq/Cause provenance: %+v", name, e)
				continue
			}
			// The cause must be this tick's instance_finish — the chain
			// `ctgsched explain` walks.
			cause, ok := bySeq[e.Cause]
			if !ok || cause.Kind != telemetry.KindInstanceFinish || cause.Instance != e.Instance {
				t.Errorf("%s: firing cause %d is %+v, want this instance's finish", name, e.Cause, cause)
			}
		}

		// The explain engine reconstructs the chain from the same stream.
		x, err := health.Explain(events, health.ExplainQuery{Kind: "alert_firing", Instance: -1})
		if err != nil {
			t.Fatalf("%s: explain: %v", name, err)
		}
		if len(x.Chain) < 2 || x.Chain[len(x.Chain)-2].Kind != telemetry.KindInstanceFinish {
			t.Errorf("%s: explain chain does not pass through instance_finish: %+v", name, x.Chain)
		}
	}
	if firings == 0 {
		t.Fatal("miss-rate rule never fired during the fault campaign")
	}

	// Each store samples the registry its manager publishes into.
	for name, st := range tel.Series {
		if got := st.Registry().Snapshot().Counters["adaptive.instances"]; got != campaignTestVectors {
			t.Errorf("%s: store registry counted %d instances, want %d", name, got, campaignTestVectors)
		}
	}
}
