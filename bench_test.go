package ctgdvfs_test

// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one benchmark per table/figure — run with
// `go test -bench=. -benchmem`), plus micro-benchmarks of the pipeline
// stages. The experiment benchmarks report their headline numbers as custom
// metrics so a bench run doubles as a compact reproduction record.

import (
	"context"
	"testing"

	"ctgdvfs"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/serve"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/trace"
)

// BenchmarkTable1 regenerates Table 1: online heuristic vs reference
// algorithms 1 [10] and 2 [17] on five random CTGs, plus the runtime gap of
// the NLP-based stretcher.
func BenchmarkTable1(b *testing.B) {
	var r *exp.Table1Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgRef1, "ref1-normalized")
	b.ReportMetric(r.AvgRef2, "ref2-normalized")
	b.ReportMetric(r.Speedup, "nlp-speedup-x")
}

// BenchmarkFigure4 regenerates Figure 4: raw branch selections, windowed
// probability and filtered probability on the MPEG type branch.
func BenchmarkFigure4(b *testing.B) {
	var r *exp.Figure4Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.Figure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Updates), "filter-updates")
}

// BenchmarkFigure5Table2 regenerates Figure 5 and Table 2 together: MPEG
// energy and re-scheduling call counts over eight movie clips at thresholds
// 0.5 and 0.1.
func BenchmarkFigure5Table2(b *testing.B) {
	var r *exp.MPEGResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.MPEG()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.SavingsT05, "savings-T0.5-pct")
	b.ReportMetric(100*r.SavingsT01, "savings-T0.1-pct")
	b.ReportMetric(r.AvgCallsT05, "calls-T0.5")
	b.ReportMetric(r.AvgCallsT01, "calls-T0.1")
}

// BenchmarkTable3 regenerates Table 3: the vehicle cruise controller over
// three road sequences.
func BenchmarkTable3(b *testing.B) {
	var r *exp.CruiseResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.Cruise()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.AvgSaving, "savings-pct")
}

// BenchmarkTable4 regenerates Table 4: ten random CTGs with the online
// profile biased toward the lowest-energy minterm.
func BenchmarkTable4(b *testing.B) {
	benchRandom(b, exp.Table4)
}

// BenchmarkTable5 regenerates Table 5: the same CTGs with the profile
// biased toward the highest-energy minterm.
func BenchmarkTable5(b *testing.B) {
	benchRandom(b, exp.Table5)
}

// BenchmarkFigure6 regenerates Figure 6: ideal profiling vs adaptive.
func BenchmarkFigure6(b *testing.B) {
	benchRandom(b, exp.Figure6)
}

func benchRandom(b *testing.B, run func() (*exp.RandomResult, error)) {
	b.Helper()
	var r *exp.RandomResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.AvgSavingT05, "savings-T0.5-pct")
	b.ReportMetric(100*r.AvgSavingT01, "savings-T0.1-pct")
	b.ReportMetric(r.AvgCallsT01, "calls-T0.1")
}

// BenchmarkSweep regenerates (a trimmed grid of) the window × threshold
// extension sweep.
func BenchmarkSweep(b *testing.B) {
	var r *exp.SweepResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.Sweep([]int{10, 20}, []float64{0.1, 0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, c := range r.Cells {
		if c.Saving > best {
			best = c.Saving
		}
	}
	b.ReportMetric(100*best, "best-savings-pct")
}

// BenchmarkOverheadSweep regenerates the DVFS switching-overhead extension.
func BenchmarkOverheadSweep(b *testing.B) {
	var r *exp.OverheadResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.Overhead()
		if err != nil {
			b.Fatal(err)
		}
	}
	last := r.Points[len(r.Points)-1]
	b.ReportMetric(float64(last.Misses), "misses-at-max-overhead")
}

// BenchmarkAblationRatio regenerates the Figure-2 ratio-denominator
// ablation.
func BenchmarkAblationRatio(b *testing.B) {
	var r *exp.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.AblationRatio()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgReleased, "released-vs-nlp")
	b.ReportMetric(r.AvgLiteral, "literal-vs-nlp")
}

// --- Micro-benchmarks of the pipeline stages ---

func benchWorkload(b *testing.B) (*ctgdvfs.Graph, *ctgdvfs.Platform, *ctgdvfs.Analysis) {
	b.Helper()
	g, p, err := ctgdvfs.GenerateRandom(ctgdvfs.RandomConfig{
		Seed: 99, Nodes: 25, PEs: 3, Branches: 3, Category: ctgdvfs.CategoryForkJoin,
	})
	if err != nil {
		b.Fatal(err)
	}
	g, err = ctgdvfs.TightenDeadline(g, p, 1.6)
	if err != nil {
		b.Fatal(err)
	}
	a, err := ctgdvfs.Analyze(g)
	if err != nil {
		b.Fatal(err)
	}
	return g, p, a
}

// BenchmarkAnalyze measures scenario enumeration on a 25-task 3-branch CTG.
func BenchmarkAnalyze(b *testing.B) {
	g, _, _ := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctgdvfs.Analyze(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDLS measures the modified dynamic-level scheduler.
func BenchmarkDLS(b *testing.B) {
	_, p, a := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeuristicStretch measures the online stretching heuristic alone
// — the stage whose low complexity enables runtime re-scheduling.
func BenchmarkHeuristicStretch(b *testing.B) {
	_, p, a := benchWorkload(b)
	base, err := ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := base.Clone()
		if _, err := ctgdvfs.Stretch(s, ctgdvfs.ContinuousDVFS(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNLPStretch measures the NLP-based stretcher it replaces.
func BenchmarkNLPStretch(b *testing.B) {
	_, p, a := benchWorkload(b)
	base, err := ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := base.Clone()
		if _, err := ctgdvfs.StretchNLP(s, ctgdvfs.ContinuousDVFS(), ctgdvfs.NLPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineReschedule measures a full adaptive re-scheduling step
// (DLS + heuristic), the operation the threshold triggers at runtime.
func BenchmarkOnlineReschedule(b *testing.B) {
	g, p, _ := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctgdvfs.Plan(g, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures one simulated CTG instance.
func BenchmarkReplay(b *testing.B) {
	g, p, a := benchWorkload(b)
	s, err := ctgdvfs.Plan(g, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctgdvfs.Replay(s, i%a.NumScenarios(), ctgdvfs.SimConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMPEGStep times the adaptive step on the MPEG decoder (deadline factor
// 1.6, W=20, T=0.1) over clip 0's decision vectors. opts attaches what the
// caller measures on top: a recorder, a failure timeline, a series store.
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

// --- Ablation benchmarks (design choices DESIGN.md §6 calls out) ---

// BenchmarkAblationDiscreteDVFS compares expected energy under continuous
// scaling vs 4-level discrete scaling (reported as metrics).
func BenchmarkAblationDiscreteDVFS(b *testing.B) {
	_, p, a := benchWorkload(b)
	var cont, disc float64
	for i := 0; i < b.N; i++ {
		s1, err := ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS())
		if err != nil {
			b.Fatal(err)
		}
		r1, err := ctgdvfs.Stretch(s1, ctgdvfs.ContinuousDVFS(), 0)
		if err != nil {
			b.Fatal(err)
		}
		s2, err := ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS())
		if err != nil {
			b.Fatal(err)
		}
		r2, err := ctgdvfs.Stretch(s2, ctgdvfs.DiscreteDVFS(0.25, 0.5, 0.75, 1), 0)
		if err != nil {
			b.Fatal(err)
		}
		cont, disc = r1.ExpectedEnergy, r2.ExpectedEnergy
	}
	b.ReportMetric(cont, "energy-continuous")
	b.ReportMetric(disc, "energy-4level")
	b.ReportMetric(100*(disc-cont)/cont, "quantization-loss-pct")
}

// BenchmarkAblationProbSL compares the probability-weighted static levels
// of the modified DLS against worst-case levels, everything else equal.
func BenchmarkAblationProbSL(b *testing.B) {
	_, p, a := benchWorkload(b)
	var prob, plain float64
	for i := 0; i < b.N; i++ {
		s1, err := ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctgdvfs.Stretch(s1, ctgdvfs.ContinuousDVFS(), 0); err != nil {
			b.Fatal(err)
		}
		opts := ctgdvfs.ModifiedDLS()
		opts.Probabilistic = false
		s2, err := ctgdvfs.Schedule(a, p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctgdvfs.Stretch(s2, ctgdvfs.ContinuousDVFS(), 0); err != nil {
			b.Fatal(err)
		}
		prob, plain = s1.ExpectedEnergy(), s2.ExpectedEnergy()
	}
	b.ReportMetric(prob, "energy-prob-SL")
	b.ReportMetric(plain, "energy-plain-SL")
}

// BenchmarkAblationEnergyWeight quantifies the energy-aware mapping
// extension (EnergyWeight in the scheduler options) against the paper's
// delay-only dynamic level.
func BenchmarkAblationEnergyWeight(b *testing.B) {
	_, p, a := benchWorkload(b)
	var plain, green float64
	for i := 0; i < b.N; i++ {
		s1, err := ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctgdvfs.Stretch(s1, ctgdvfs.ContinuousDVFS(), 0); err != nil {
			b.Fatal(err)
		}
		opts := ctgdvfs.ModifiedDLS()
		opts.EnergyWeight = 0.5
		s2, err := ctgdvfs.Schedule(a, p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctgdvfs.Stretch(s2, ctgdvfs.ContinuousDVFS(), 0); err != nil {
			b.Fatal(err)
		}
		plain, green = s1.ExpectedEnergy(), s2.ExpectedEnergy()
	}
	b.ReportMetric(plain, "energy-delay-only-DL")
	b.ReportMetric(green, "energy-weighted-DL")
}

// BenchmarkAblationMEOverlap quantifies the value of letting mutually
// exclusive tasks share PE time.
func BenchmarkAblationMEOverlap(b *testing.B) {
	_, p, a := benchWorkload(b)
	var with, without float64
	for i := 0; i < b.N; i++ {
		s1, err := ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctgdvfs.Stretch(s1, ctgdvfs.ContinuousDVFS(), 0); err != nil {
			b.Fatal(err)
		}
		opts := ctgdvfs.ModifiedDLS()
		opts.MEOverlap = false
		s2, err := ctgdvfs.Schedule(a, p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctgdvfs.Stretch(s2, ctgdvfs.ContinuousDVFS(), 0); err != nil {
			b.Fatal(err)
		}
		with, without = s1.ExpectedEnergy(), s2.ExpectedEnergy()
	}
	b.ReportMetric(with, "energy-ME-overlap")
	b.ReportMetric(without, "energy-serialized")
}

// BenchmarkPerScenarioDVFS regenerates the scenario-conditioned DVFS
// extension comparison.
func BenchmarkPerScenarioDVFS(b *testing.B) {
	var r *exp.PerScenarioResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.PerScenarioDVFS()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.AvgSaving, "savings-over-single-speed-pct")
}

// --- Parallel scenario engine: serial vs parallel ---
//
// These four benchmarks measure the same two hot stages with the worker
// pool forced serial (SetParallelism(1)) and at the default bound; their
// ratio is the engine's speedup (not measurable on a single-core host).
// Results are bit-for-bit identical at every setting, so the comparison is
// pure engine overhead/speedup.

func benchMPEGSchedule(b *testing.B) *ctgdvfs.PlanResult {
	b.Helper()
	g, p, err := ctgdvfs.BuildMPEG()
	if err != nil {
		b.Fatal(err)
	}
	g, err = ctgdvfs.TightenDeadline(g, p, 1.6)
	if err != nil {
		b.Fatal(err)
	}
	a, err := ctgdvfs.Analyze(g)
	if err != nil {
		b.Fatal(err)
	}
	s, err := ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchPerScenario(b *testing.B, workers int) {
	s := benchMPEGSchedule(b)
	prev := ctgdvfs.SetParallelism(workers)
	defer ctgdvfs.SetParallelism(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctgdvfs.StretchPerScenario(s, ctgdvfs.ContinuousDVFS(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerScenarioSerial measures scenario-conditioned stretching of the
// MPEG decoder (one DP stretch per leaf minterm) on a single worker.
func BenchmarkPerScenarioSerial(b *testing.B) { benchPerScenario(b, 1) }

// BenchmarkPerScenarioParallel is the same workload on the default worker
// bound (GOMAXPROCS).
func BenchmarkPerScenarioParallel(b *testing.B) { benchPerScenario(b, 0) }

func benchExhaustive(b *testing.B, workers int) {
	s := benchMPEGSchedule(b)
	if _, err := ctgdvfs.Stretch(s, ctgdvfs.ContinuousDVFS(), 0); err != nil {
		b.Fatal(err)
	}
	prev := ctgdvfs.SetParallelism(workers)
	defer ctgdvfs.SetParallelism(prev)
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

// --- Telemetry, provenance and failover ---
//
// Each BenchmarkAdaptiveStep* below (Series included) is
// BenchmarkAdaptiveStepMPEG with one mechanism attached; the difference is
// that mechanism's cost. The zero-allocation contracts of the flight
// recorder and the series tick are held by tests:
// TestFlightRecorderZeroAllocSteadyState (internal/telemetry) and
// TestStoreTickAllocsZero (internal/series).

// BenchmarkAdaptiveStepTelemetryMemory records the full event stream into a
// memory recorder plus a registry: the cost of unbounded capture.
func BenchmarkAdaptiveStepTelemetryMemory(b *testing.B) {
	rec := ctgdvfs.NewMemoryRecorder()
	benchMPEGStep(b, ctgdvfs.AdaptiveOptions{Recorder: rec, Metrics: ctgdvfs.NewMetricsRegistry()})
	b.ReportMetric(float64(rec.Len())/float64(b.N), "events/op")
}

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
	fr := ctgdvfs.NewFlightRecorder(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Record(flightBenchEvent)
	}
}

// BenchmarkFlightRecorderDisabled measures the nil-receiver path — "flight
// recorder not installed" must cost one branch and zero allocations.
func BenchmarkFlightRecorderDisabled(b *testing.B) {
	var fr *ctgdvfs.FlightRecorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Record(flightBenchEvent)
	}
}

// BenchmarkAdaptiveStepFlight is the adaptive step with an always-on flight
// recorder: the cost of keeping the black box running, with Seq/Cause
// stamping active.
func BenchmarkAdaptiveStepFlight(b *testing.B) {
	fr := ctgdvfs.NewFlightRecorder(0)
	benchMPEGStep(b, ctgdvfs.AdaptiveOptions{Recorder: fr})
	b.ReportMetric(float64(fr.Total())/float64(b.N), "events/op")
}

// BenchmarkAdaptiveStepFailover steps through a 2%-outage timeline with
// 10-instance repairs: most boundaries only compare masks, a few percent
// pay a degraded re-map or a cached restore.
func BenchmarkAdaptiveStepFailover(b *testing.B) {
	_, p, err := ctgdvfs.BuildMPEG()
	if err != nil {
		b.Fatal(err)
	}
	tl, err := ctgdvfs.NewFailureTimeline(ctgdvfs.FailureSpec{Seed: 42, PEFailProb: 0.02, PERepair: 10}, p.NumPEs())
	if err != nil {
		b.Fatal(err)
	}
	remapped := benchMPEGStep(b, ctgdvfs.AdaptiveOptions{Recovery: true, Failures: tl})
	b.ReportMetric(float64(remapped)/float64(b.N), "remaps/op")
}

// --- Large-scale tier ---
//
// The scale tier measures the rescheduling pipeline on a 10³-task CTG over
// 16 PEs — the regime where the warm-start path earns its keep: a
// small-drift update (one fork's probabilities changed) served by the
// incremental path versus a full DLS + stretch recompute. The warm path's
// zero-allocation contract is TestPartialBoundWorkspaceAllocatesNothing
// (internal/stretch).

func benchScale1k(b *testing.B) (*ctgdvfs.Graph, *ctgdvfs.Platform, *ctgdvfs.Analysis) {
	b.Helper()
	g0, p, err := exp.ScaleWorkload(exp.ScaleConfig{Tasks: 1000, PEs: 16, Forks: 5})
	if err != nil {
		b.Fatal(err)
	}
	g, err := ctgdvfs.TightenDeadline(g0, p, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	a, err := ctgdvfs.Analyze(g)
	if err != nil {
		b.Fatal(err)
	}
	return g, p, a
}

// BenchmarkScaleDLS1k measures the modified DLS mapper alone at 10³ tasks on
// 16 PEs (with a reused workspace, as the adaptive manager runs it).
func BenchmarkScaleDLS1k(b *testing.B) {
	_, p, a := benchScale1k(b)
	ws := sched.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.DLSInto(a, p, sched.Modified(), ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleRescheduleFull1k measures a full adaptive reschedule (DLS +
// stretching heuristic) at 10³ tasks — the cost every drift pays without
// warm-starting.
func BenchmarkScaleRescheduleFull1k(b *testing.B) {
	_, p, a := benchScale1k(b)
	ws := sched.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sched.DLSInto(a, p, sched.Modified(), ws)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stretch.Heuristic(s, ctgdvfs.ContinuousDVFS(), stretch.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleRescheduleWarm1k measures the incremental reschedule for the
// same workload under a small drift (fork 0 changed): copy the incumbent
// skeleton into a reused buffer and re-stretch only the affected conditional
// arms. The ratio to BenchmarkScaleRescheduleFull1k is the committed
// warm-start speedup.
func BenchmarkScaleRescheduleWarm1k(b *testing.B) {
	_, p, a := benchScale1k(b)
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := stretch.Heuristic(s, ctgdvfs.ContinuousDVFS(), stretch.Options{}); err != nil {
		b.Fatal(err)
	}
	affected := core.AffectedByDrift(a, []int{0})
	warm := sched.NewWarmState()
	ws := stretch.NewWorkspace()
	// Fill both double buffers and bind the workspace outside the timer.
	for i := 0; i < 2; i++ {
		target := warm.Start(s)
		ws.Rebind(target)
		if _, err := stretch.Heuristic(target, ctgdvfs.ContinuousDVFS(), stretch.Options{Affected: affected, Workspace: ws}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := warm.Start(s)
		if _, err := stretch.Heuristic(target, ctgdvfs.ContinuousDVFS(), stretch.Options{Affected: affected, Workspace: ws}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Monitoring ---

// benchSeriesRegistry builds a registry shaped like a manager's: a handful of
// counters and gauges plus two histograms, all with live values.
func benchSeriesRegistry() *ctgdvfs.MetricsRegistry {
	reg := ctgdvfs.NewMetricsRegistry()
	for _, n := range []string{"adaptive.instances", "adaptive.misses", "adaptive.calls",
		"adaptive.cache_hits", "adaptive.overruns"} {
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
	st := ctgdvfs.NewSeriesStore(ctgdvfs.SeriesStoreOptions{Registry: reg})
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
	st := ctgdvfs.NewSeriesStore(ctgdvfs.SeriesStoreOptions{Registry: reg, Rules: []ctgdvfs.SeriesRule{
		{Name: "miss", Metric: "adaptive.miss_rate_window", Value: 10},
		{Name: "guard", Metric: "adaptive.guard_level", Op: ">=", Value: 10},
		{Name: "climb", Metric: "adaptive.miss_rate", Kind: "rate", Value: 10},
		{Name: "late", Metric: "adaptive.lateness.p95", Value: 1e9},
	}})
	rec := ctgdvfs.NewMemoryRecorder()
	seq := ctgdvfs.NewSequencer()
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
	st := ctgdvfs.NewSeriesStore(ctgdvfs.SeriesStoreOptions{Registry: ctgdvfs.NewMetricsRegistry()})
	benchMPEGStep(b, ctgdvfs.AdaptiveOptions{Metrics: st.Registry(), Series: st})
}

// benchDaemon builds an in-process serving daemon with one mpeg tenant and
// its seeded decision-vector cycle. Checkpointing and event sinks are off:
// the measurement is the serve loop itself (admission, queue hand-off,
// worker dispatch, reply) around the adaptive step.
func benchDaemon(b *testing.B, threshold float64) (*serve.Server, [][]int) {
	b.Helper()
	srv, err := serve.New(serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Abandon() })
	_, err = srv.CreateTenant(serve.TenantSpec{
		Name: "bench", Workload: "mpeg", DeadlineFactor: 1.6, Threshold: threshold,
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
	srv, vecs := benchDaemon(b, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Step(ctx, "bench", vecs[i%len(vecs)], serve.ChaosSpec{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDaemonStepResched is the same round trip with a near-zero drift
// threshold, so every request runs the full reschedule pipeline — the
// worst-case per-request cost a tenant can impose on its own worker (other
// tenants are unaffected; workers are per-tenant).
func BenchmarkDaemonStepResched(b *testing.B) {
	srv, vecs := benchDaemon(b, 1e-9)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Step(ctx, "bench", vecs[i%len(vecs)], serve.ChaosSpec{}); err != nil {
			b.Fatal(err)
		}
	}
}
