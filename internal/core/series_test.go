package core

import (
	"path/filepath"
	"testing"

	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/trace"
)

// TestManagerSeriesBitForBit pins the sampling zero-interference guarantee:
// a manager with a series store attached produces the exact same RunStats as
// one without, and the store holds one sample per instance.
func TestManagerSeriesBitForBit(t *testing.T) {
	run := func(st *series.Store) RunStats {
		g, p := telemetryWorkload(t, 21)
		opts := Options{Window: 10, Threshold: 0.1}
		if st != nil {
			opts.Metrics = st.Registry()
			opts.Series = st
		}
		m, err := New(g, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := m.Run(trace.Fluctuating(g, 7, 60, 0.4))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	plain := run(nil)
	st := series.NewStore(series.StoreOptions{Registry: telemetry.NewRegistry()})
	sampled := run(st)
	if plain != sampled {
		t.Fatalf("series sampling changed RunStats:\nplain   %+v\nsampled %+v", plain, sampled)
	}
	if st.Ticks() != sampled.Instances {
		t.Fatalf("store ticked %d times for %d instances", st.Ticks(), sampled.Instances)
	}
	mr := st.Series("adaptive.miss_rate")
	if mr == nil || mr.Len() != sampled.Instances {
		t.Fatalf("miss-rate series missing or short: %v", mr)
	}
	if tick, v := mr.Last(); tick != sampled.Instances-1 || v != float64(sampled.Misses)/float64(sampled.Instances) {
		t.Fatalf("miss-rate last sample (%d, %g) does not match RunStats %d/%d",
			tick, v, sampled.Misses, sampled.Instances)
	}
	// The instance counter must have been sampled too (registry-wide sweep).
	if s := st.Series("adaptive.instances"); s == nil || s.Len() != sampled.Instances {
		t.Fatal("counter metrics not sampled")
	}
}

// TestShippedRulesWatchManagerMetrics checks every rule of the shipped rule
// files names a metric a manager registers: CheckRules accepts both files,
// and each rule's metric is a series a manager's store really samples.
func TestShippedRulesWatchManagerMetrics(t *testing.T) {
	g, p := telemetryWorkload(t, 21)
	st := series.NewStore(series.StoreOptions{Registry: telemetry.NewRegistry()})
	m, err := New(g, p, Options{Metrics: st.Registry(), Series: st})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(make([]int, g.NumForks())); err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"rules.json", "health.json"} {
		rs, err := series.LoadRules(filepath.Join("..", "..", "examples", "watch", file))
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckRules(rs.Rules); err != nil {
			t.Errorf("%s: %v", file, err)
		}
		for _, r := range rs.Rules {
			if st.Series(r.Metric) == nil {
				t.Errorf("%s: rule %q watches %q, which the manager's store never sampled", file, r.Name, r.Metric)
			}
		}
	}
}
