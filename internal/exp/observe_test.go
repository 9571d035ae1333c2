package exp

import (
	"reflect"
	"testing"

	"ctgdvfs/internal/telemetry"
)

// TestMergedCampaignTelemetry runs a short consolidation campaign and a short
// fault campaign against one shared registry — the way the experiments CLI
// observes `-exp all` — and merges their telemetry: every stream of both
// campaigns must be present, and the fault streams must equal those of a
// fault campaign observed on its own.
func TestMergedCampaignTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both traced campaigns")
	}
	const vectors = 100
	spec, guard := DefaultCampaignSpec(), DefaultCampaignGuard
	_, alone, err := faultCampaignN(spec, guard, vectors, &Observe{})
	if err != nil {
		t.Fatal(err)
	}

	obs := &Observe{Metrics: telemetry.NewRegistry()}
	_, cons, err := ConsolidationCampaign(20, nil, obs)
	if err != nil {
		t.Fatal(err)
	}
	_, fault, err := faultCampaignN(spec, guard, vectors, obs)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := cons.Merge(fault)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Metrics != obs.Metrics {
		t.Fatal("merged set lost the shared registry")
	}
	for _, src := range []*CampaignTelemetry{cons, fault} {
		for name, rec := range src.Recorders {
			if merged.Recorders[name] != rec {
				t.Errorf("stream %q missing from the merged set", name)
			}
		}
		for name, h := range src.Health {
			if merged.Health[name] != h {
				t.Errorf("health analyzer %q missing from the merged set", name)
			}
		}
		for name, st := range src.Series {
			if merged.Series[name] != st {
				t.Errorf("series store %q missing from the merged set", name)
			}
		}
	}
	if got, want := len(merged.Recorders), len(cons.Recorders)+len(fault.Recorders); got != want {
		t.Fatalf("merged set holds %d streams, want %d", got, want)
	}

	if len(alone.Recorders) != 2 {
		t.Fatalf("fault campaign recorded %d streams, want 2", len(alone.Recorders))
	}
	for name, rec := range alone.Recorders {
		want, got := rec.Events(), merged.Recorders[name].Events()
		zeroSpans(want)
		zeroSpans(got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: fault stream changed under the shared registry (%d vs %d events)",
				name, len(want), len(got))
		}
		if a, m := alone.Series[name].Ticks(), merged.Series[name].Ticks(); a != m {
			t.Errorf("%s: series store ticked %d times, want %d", name, m, a)
		}
	}

	if _, err := merged.Merge(fault); err == nil {
		t.Error("merging a campaign's streams twice was accepted")
	}
	if _, err := (*CampaignTelemetry)(nil).Merge(alone); err != nil {
		t.Errorf("merging into an empty set: %v", err)
	}
	if _, err := cons.Merge(alone); err == nil {
		t.Error("merging sets with different registries was accepted")
	}
}

// zeroSpans clears pipeline_span values: they are wall-clock durations,
// nondeterministic even between two identical runs.
func zeroSpans(evs []telemetry.Event) {
	for i := range evs {
		if evs[i].Kind == telemetry.KindSpan {
			evs[i].Value = 0
		}
	}
}
