package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"ctgdvfs/internal/telemetry"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{199, 0.9, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, q) < minTail {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, 100*q, beyond(c.n, q))
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// fakeClock advances only when told to: sleeping jumps to the wake time plus
// a fixed oversleep, and a request's service time is added by the send
// callback.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t.Add(c.oversleep)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const period = 10 * time.Millisecond
	// Request 1 stalls for 35ms: requests 2..4 go out late and their latency
	// counts the wait from when they were due.
	service := []time.Duration{2 * time.Millisecond, 35 * time.Millisecond, 2 * time.Millisecond,
		2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond}
	const us = time.Microsecond
	for _, c := range []struct {
		oversleep         time.Duration
		latency, lateness []time.Duration
	}{
		{0, []time.Duration{2000, 35000, 27000, 19000, 11000, 3000}, []time.Duration{0, 0, 25000, 17000, 9000, 1000}},
		// The generator oversleeps request 1 by 0.5ms: that is not charged to
		// request 1, but its later reply holds up the requests behind it.
		{500 * us, []time.Duration{2000, 35000, 27500, 19500, 11500, 3500}, []time.Duration{0, 500, 25500, 17500, 9500, 1500}},
	} {
		clk := &fakeClock{now: time.Unix(0, 0), oversleep: c.oversleep}
		start := clk.now
		reqs := openLoop(clk, start, period, len(service), func(i int) bool {
			clk.now = clk.now.Add(service[i])
			return i != 5
		})
		for i, r := range reqs {
			if r.due != start.Add(time.Duration(i)*period) {
				t.Errorf("oversleep %v: request %d due at %v", c.oversleep, i, r.due.Sub(start))
			}
			if got := r.latency(); got != c.latency[i]*us {
				t.Errorf("oversleep %v: request %d latency %v, want %v", c.oversleep, i, got, c.latency[i]*us)
			}
			if got := r.lateness(); got != c.lateness[i]*us {
				t.Errorf("oversleep %v: request %d lateness %v, want %v", c.oversleep, i, got, c.lateness[i]*us)
			}
		}
		// On time: request 0 only; 1 to 4 took 11ms or more from due, and
		// request 5 was fast but failed.
		if got := onTimeRatio(reqs, period); got != 1.0/6 {
			t.Errorf("oversleep %v: on-time ratio %v, want 1/6", c.oversleep, got)
		}
	}
}

func TestUnaccountedPct(t *testing.T) {
	if got := unaccountedPct(200, 50, 100); got != 25 {
		t.Errorf("unaccountedPct(200; 50, 100) = %v, want 25", got)
	}
	if got := unaccountedPct(100, 60, 60); got != -20 {
		t.Errorf("over-attributed layers give %v, want -20", got)
	}
	if got := unaccountedPct(0, 1); got != 0 {
		t.Errorf("no step time gives %v, want 0", got)
	}
}

func TestPipelineLayersSplitsStretchBySpanBefore(t *testing.T) {
	span := func(name string, v float64) telemetry.Event {
		return telemetry.Event{Kind: telemetry.KindSpan, Name: name, Value: v}
	}
	resched := telemetry.Event{Kind: telemetry.KindReschedule}
	var p pipelineLayers
	total := p.add([]telemetry.Event{
		// A warm start that validates.
		span("diff", 1), span("stretch", 10), span("validate", 2), resched,
		// A warm attempt that falls back to a full recompute.
		span("diff", 1), span("stretch", 20), span("dls", 300), span("stretch", 4000), resched,
		{Kind: telemetry.KindReschedule, CacheHit: true},
	}, false)
	if total != 4334 {
		t.Errorf("span total %v, want 4334", total)
	}
	if len(p.partial) != 2 || sum(p.partial) != 30 || len(p.full) != 1 || p.full[0] != 4000 {
		t.Errorf("partial %v full %v", p.partial, p.full)
	}
	if p.reschedules != 3 || p.cacheHits != 1 {
		t.Errorf("reschedules %d, hits %d", p.reschedules, p.cacheHits)
	}
	var ps pipelineLayers
	ps.add([]telemetry.Event{span("dls", 5), span("stretch", 7)}, true)
	if len(ps.perScenario) != 1 || len(ps.full) != 0 {
		t.Errorf("per-scenario tenant: perScenario %v full %v", ps.perScenario, ps.full)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the harness's metric tables and the
// benchmark's declaration in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the harness: %v", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, specs []metricSpec, got []struct{ Name, Unit string }) {
		if len(specs) != len(got) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(specs), len(got))
			return
		}
		for i, s := range specs {
			if got[i].Name != s.name || got[i].Unit != s.unit {
				t.Errorf("%s[%d]: harness %s/%s, BENCHMARK.json %s/%s", kind, i, s.name, s.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, decl.EndToEnd)
	check("per_layer", perLayer, decl.PerLayer)
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}
