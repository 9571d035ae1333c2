package exp

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"ctgdvfs/internal/health"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// campaignTestVectors truncates the measured sequences so the acceptance
// tests stay affordable under the race detector; the qualitative contrast is
// already unambiguous at this length.
const campaignTestVectors = 250

// plainCampaign is the unobserved campaign at the test length, run once and
// shared by the tests that only read its result.
var plainCampaign = sync.OnceValues(func() (*FaultCampaignResult, error) {
	r, _, err := faultCampaignN(DefaultCampaignSpec(), DefaultCampaignGuard, campaignTestVectors, nil)
	return r, err
})

// TestFaultCampaignAcceptance pins the PR's headline claim on both
// application workloads: under the seeded 20%-overrun plan the guarded
// runtime with fallback recovery misses strictly less than the unguarded
// adaptive runtime AND spends strictly less energy than the always-full-speed
// baseline, with the recovery counters visible in the row.
func TestFaultCampaignAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign replays hundreds of faulty instances per runtime")
	}
	r, err := plainCampaign()
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

// TestFaultCampaignObservedHealth checks that observing the campaign changes
// no campaign number and that health.Analyze of each recorded stream agrees
// with the campaign's row. It runs once without alert rules and once with
// examples/watch/rules.json armed, and pins the campaign's behaviour
// contract: the rendered table and one SHA-256 per event stream of each case
// must match testdata/faultcampaign.golden (go test -update rewrites it).
func TestFaultCampaignObservedHealth(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign replays hundreds of faulty instances per runtime")
	}
	rules, err := series.LoadRules(filepath.Join("..", "..", "examples", "watch", "rules.json"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainCampaign()
	if err != nil {
		t.Fatal(err)
	}
	golden := plain.Render()
	for _, c := range []struct {
		label string // prefixes the case's digest lines; "" keeps the rule-less lines unlabelled
		rules []series.Rule
	}{
		{"", nil},
		{"rules.json ", rules.Rules},
	} {
		observed, tel, err := faultCampaignN(DefaultCampaignSpec(), DefaultCampaignGuard, campaignTestVectors,
			&Observe{Rules: c.rules})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Rows, observed.Rows) {
			t.Fatalf("%sobservation changed campaign rows:\n%+v\n%+v", c.label, plain.Rows, observed.Rows)
		}
		for _, row := range observed.Rows {
			rec := tel.Recorders[row.Workload]
			if rec == nil {
				t.Fatalf("%s: no recorder", row.Workload)
			}
			s := health.Analyze(rec.Events(), health.Options{})
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
			// Every rule firing in the stream is reported exactly once.
			firings := 0
			if s.SeriesAlerts != nil {
				firings = s.SeriesAlerts.Firings
			}
			if n := rec.CountByKind()[telemetry.KindAlertFiring]; n != firings {
				t.Errorf("%s%s: %d alert_firing events vs %d reported firings", c.label, row.Workload, n, firings)
			}
		}
		if tel.Metrics.Snapshot().Counters["adaptive.instances"] == 0 {
			t.Error("campaign registry saw no instances")
		}
		golden += streamDigests(t, tel, c.label)
	}
	checkGolden(t, "faultcampaign.golden", golden)
}

// streamDigests lists one SHA-256 per event stream, in stream-name order,
// over the stream's JSONL encoding with pipeline_span values masked (they
// are wall-clock durations).
func streamDigests(t *testing.T, tel *CampaignTelemetry, label string) string {
	t.Helper()
	names := make([]string, 0, len(tel.Recorders))
	for name := range tel.Recorders {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		evs := tel.Recorders[name].Events()
		zeroSpans(evs)
		h := sha256.New()
		enc := json.NewEncoder(h)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(&b, "%sstream %s: %d events, sha256 %x\n", label, name, len(evs), h.Sum(nil))
	}
	return b.String()
}

// checkGolden compares got against testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s changed (go test -update rewrites it):\n--- got ---\n%s--- want ---\n%s", path, got, want)
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

// zeroSpans clears pipeline_span values: they are wall-clock durations,
// nondeterministic even between two identical runs.
func zeroSpans(evs []telemetry.Event) {
	for i := range evs {
		if evs[i].Kind == telemetry.KindSpan {
			evs[i].Value = 0
		}
	}
}
