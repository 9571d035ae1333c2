package ctgdvfs_test

// Micro-benchmarks that have a reader: the adaptive step on the MPEG decoder
// (the baseline DESIGN.md §10 compares against), the same step with a
// failure timeline or a series store attached, the flight recorder's ring
// write, the series tick, all-scenario replay at two worker bounds, and the
// daemon's serve loop. None re-runs a paper result: cmd/experiments does,
// pinned by the golden files under internal/exp/testdata, and the end-to-end
// timing lives in perfbench/ (perfbench/LEDGER.md says which benchmark
// covers what).

import (
	"context"
	"testing"

	"ctgdvfs"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/serve"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/trace"
)

// benchMPEGStep times the adaptive step on the MPEG decoder (deadline factor
// 1.6, W=20, T=0.1) over clip 0's decision vectors. opts attaches what the
// caller measures on top: a failure timeline or a series store.
// It returns the number of steps that re-mapped.
func benchMPEGStep(b *testing.B, opts ctgdvfs.AdaptiveOptions) (remapped int) {
	g, p, err := ctgdvfs.BuildMPEG()
	if err != nil {
		b.Fatal(err)
	}
	g, err = ctgdvfs.TightenDeadline(g, p, 1.6)
	if err != nil {
		b.Fatal(err)
	}
	vec := ctgdvfs.MovieClips()[0].Generate(g, 4096)
	opts.Window, opts.Threshold = 20, 0.1
	mgr, err := ctgdvfs.NewAdaptive(g, p, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mgr.Step(vec[i%len(vec)])
		if err != nil {
			b.Fatal(err)
		}
		if res.Remapped {
			remapped++
		}
	}
	return remapped
}

// BenchmarkAdaptiveStepMPEG measures the adaptive runtime's per-instance
// cost on the MPEG decoder, rescheduling included, with no recorder,
// registry, failure timeline or series store attached.
func BenchmarkAdaptiveStepMPEG(b *testing.B) {
	benchMPEGStep(b, ctgdvfs.AdaptiveOptions{})
}

// --- Parallel scenario engine: serial vs parallel ---
//
// The two Exhaustive benchmarks measure all-scenario replay with the worker
// pool forced serial (par.SetLimit(1)) and at the default bound; their
// ratio is the engine's speedup (not measurable on a single-core host).
// Results are bit-for-bit identical at every setting, so the comparison is
// pure engine overhead/speedup.

// benchExhaustive replays every scenario of the stretched MPEG schedule
// (deadline factor 1.6) at the given worker bound.
func benchExhaustive(b *testing.B, workers int) {
	g, p, err := ctgdvfs.BuildMPEG()
	if err != nil {
		b.Fatal(err)
	}
	g, err = ctgdvfs.TightenDeadline(g, p, 1.6)
	if err != nil {
		b.Fatal(err)
	}
	s, err := ctgdvfs.Plan(g, p)
	if err != nil {
		b.Fatal(err)
	}
	prev := par.SetLimit(workers)
	defer par.SetLimit(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctgdvfs.Exhaustive(s, ctgdvfs.SimConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExhaustiveSerial measures all-scenario replay of the stretched
// MPEG schedule on a single worker.
func BenchmarkExhaustiveSerial(b *testing.B) { benchExhaustive(b, 1) }

// BenchmarkExhaustiveParallel is the same workload on the default worker
// bound.
func BenchmarkExhaustiveParallel(b *testing.B) { benchExhaustive(b, 0) }

// --- Flight recorder and failover ---
//
// BenchmarkAdaptiveStepFailover (and BenchmarkAdaptiveStepSeries below) is
// BenchmarkAdaptiveStepMPEG with one mechanism attached; the difference is
// that mechanism's cost. The zero-allocation contracts of the flight
// recorder and the series tick are held by tests:
// TestFlightRecorderZeroAllocSteadyState (internal/telemetry) and
// TestStoreTickAllocsZero (internal/series).

// flightBenchEvent is a representative event: the ring stores it in a
// preallocated slot, which is the recorder's steady state.
var flightBenchEvent = ctgdvfs.TelemetryEvent{
	Kind: ctgdvfs.KindTaskSlice, Instance: 7, Seq: 42, Cause: 41,
	Task: 3, PE: 1, Start: 10, End: 12, Speed: 0.8, Energy: 1.6,
}

// BenchmarkFlightRecorderRecord measures the flight recorder's steady-state
// ring write. Zero allocs/op is the design invariant that makes the black
// box safe to leave always on.
func BenchmarkFlightRecorderRecord(b *testing.B) {
	fr := telemetry.NewFlightRecorder(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Record(flightBenchEvent)
	}
}

// BenchmarkFlightRecorderDisabled measures the nil-receiver path — "flight
// recorder not installed" must cost one branch and zero allocations.
func BenchmarkFlightRecorderDisabled(b *testing.B) {
	var fr *telemetry.FlightRecorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Record(flightBenchEvent)
	}
}

// BenchmarkAdaptiveStepFailover steps through a 2%-outage timeline with
// 10-instance repairs: most boundaries only compare masks, a few percent
// pay a degraded re-map or a restore.
func BenchmarkAdaptiveStepFailover(b *testing.B) {
	_, p, err := ctgdvfs.BuildMPEG()
	if err != nil {
		b.Fatal(err)
	}
	tl, err := faults.NewTimeline(faults.FailureSpec{Seed: 42, PEFailProb: 0.02, PERepair: 10}, p.NumPEs())
	if err != nil {
		b.Fatal(err)
	}
	remapped := benchMPEGStep(b, ctgdvfs.AdaptiveOptions{Recovery: true, Failures: tl})
	b.ReportMetric(float64(remapped)/float64(b.N), "remaps/op")
}

// --- Monitoring ---

// benchSeriesRegistry builds a registry shaped like a manager's: a handful of
// counters and gauges plus two histograms, all with live values.
func benchSeriesRegistry() *ctgdvfs.MetricsRegistry {
	reg := ctgdvfs.NewMetricsRegistry()
	for _, n := range []string{"adaptive.instances", "adaptive.misses", "adaptive.calls",
		"adaptive.warm_starts", "adaptive.overruns"} {
		reg.Counter(n).Add(17)
	}
	for _, n := range []string{"adaptive.miss_rate", "adaptive.miss_rate_window",
		"adaptive.guard_level", "adaptive.drift"} {
		reg.Gauge(n).Set(0.25)
	}
	for _, n := range []string{"adaptive.makespan", "adaptive.lateness"} {
		h := reg.Histogram(n, 0, 100, 32)
		for i := 0; i < 64; i++ {
			h.Observe(float64(i))
		}
	}
	return reg
}

// BenchmarkSeriesTick measures the sampler's steady-state cost: one Tick over
// the representative registry with every handle already discovered. Zero
// allocs/op is the design invariant that makes the store safe to leave always
// on.
func BenchmarkSeriesTick(b *testing.B) {
	reg := benchSeriesRegistry()
	st := series.NewStore(series.StoreOptions{Registry: reg})
	st.Tick(0, nil, nil, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Tick(i+1, nil, nil, 0)
	}
}

// BenchmarkSeriesTickRules adds four armed-but-quiet alert rules (threshold,
// rate and absence) to the sampled tick — the always-on alerting engine's
// steady state, which must stay allocation-free too.
func BenchmarkSeriesTickRules(b *testing.B) {
	reg := benchSeriesRegistry()
	st := series.NewStore(series.StoreOptions{Registry: reg, Rules: []series.Rule{
		{Name: "miss", Metric: "adaptive.miss_rate_window", Value: 10},
		{Name: "guard", Metric: "adaptive.guard_level", Op: ">=", Value: 10},
		{Name: "climb", Metric: "adaptive.miss_rate", Kind: "rate", Value: 10},
		{Name: "late", Metric: "adaptive.lateness.p95", Value: 1e9},
	}})
	rec := ctgdvfs.NewMemoryRecorder()
	seq := telemetry.NewSequencer()
	st.Tick(0, rec, seq, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Tick(i+1, rec, seq, 0)
	}
}

// BenchmarkAdaptiveStepSeries is the MPEG adaptive step with a series store
// sampling the manager's own registry on every instance boundary: the cost
// of always-on sampling.
func BenchmarkAdaptiveStepSeries(b *testing.B) {
	st := series.NewStore(series.StoreOptions{Registry: ctgdvfs.NewMetricsRegistry()})
	benchMPEGStep(b, ctgdvfs.AdaptiveOptions{Metrics: st.Registry(), Series: st})
}

// benchDaemon builds an in-process serving daemon with one mpeg tenant and
// its seeded decision-vector cycle. Checkpointing and event sinks are off:
// the measurement is the serve loop itself (admission, queue hand-off,
// worker dispatch, reply) around the adaptive step.
func benchDaemon(b *testing.B) (*serve.Server, [][]int) {
	b.Helper()
	srv, err := serve.New(serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Abandon() })
	_, err = srv.CreateTenant(serve.TenantSpec{
		Name: "bench", Workload: "mpeg", DeadlineFactor: 1.6, Threshold: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	g, _, err := mpeg.Build()
	if err != nil {
		b.Fatal(err)
	}
	return srv, trace.Fluctuating(g, 1, 256, 0.4)
}

// BenchmarkDaemonStepServe is the daemon's steady-state serve loop: one
// in-process Step round trip (admission check, bounded-queue hand-off,
// worker step, reply) with the drift threshold at its maximum so the pipeline
// (almost) never recomputes — the cost of hosting a tenant behind the daemon rather
// than calling the manager directly. The serve loop's overhead per request is
// a fixed small number of allocations (request/reply envelopes and the
// committed decision-log entry), independent of tenant state size; its bound
// is TestServeStepAllocsBounded (internal/serve).
func BenchmarkDaemonStepServe(b *testing.B) {
	srv, vecs := benchDaemon(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Step(ctx, "bench", vecs[i%len(vecs)], serve.ChaosSpec{}); err != nil {
			b.Fatal(err)
		}
	}
}
