package core

import (
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
