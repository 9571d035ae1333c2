package core

import (
	"math"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

func testWorkload(t *testing.T, seed int64) (*ctg.Graph, *tgff.Config) {
	t.Helper()
	cfg := tgff.Config{Seed: seed, Nodes: 18, PEs: 3, Branches: 2, Category: tgff.ForkJoin}
	g, _, err := tgff.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, &cfg
}

func TestProfilerSeedingMatchesInitialProbs(t *testing.T) {
	g, _ := testWorkload(t, 1)
	for _, fork := range g.Forks() {
		if err := g.SetBranchProbs(fork, []float64{0.3, 0.7}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewProfiler(g, 20)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range g.Forks() {
		est := p.Estimate(fi)
		if math.Abs(est[0]-0.3) > 0.05 || math.Abs(est[1]-0.7) > 0.05 {
			t.Fatalf("fork %d seeded estimate %v, want ≈[0.3 0.7]", fi, est)
		}
	}
	if d := p.maxDrift(nil); d > 0.05 {
		t.Fatalf("fresh profiler drift %v, want ≈0", d)
	}
}

func TestProfilerObserveShiftsWindow(t *testing.T) {
	g, _ := testWorkload(t, 2)
	p, err := NewProfiler(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Push 10 outcome-0 decisions: the estimate must become [1, 0].
	for i := 0; i < 10; i++ {
		if err := p.Observe(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	est := p.Estimate(0)
	if est[0] != 1 || est[1] != 0 {
		t.Fatalf("estimate after flooding = %v, want [1 0]", est)
	}
	if d := p.maxDrift(nil); d < 0.4 {
		t.Fatalf("drift %v too small after flooding", d)
	}
	// Window semantics: 10 more outcome-1 decisions fully displace.
	for i := 0; i < 10; i++ {
		if err := p.Observe(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	est = p.Estimate(0)
	if est[0] != 0 || est[1] != 1 {
		t.Fatalf("estimate after displacement = %v, want [0 1]", est)
	}
}

func TestProfilerErrors(t *testing.T) {
	g, _ := testWorkload(t, 3)
	if _, err := NewProfiler(g, 0); err == nil {
		t.Fatal("want error for zero window")
	}
	p, err := NewProfiler(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(99, 0); err == nil {
		t.Fatal("want error for bad fork index")
	}
	if err := p.Observe(0, 99); err == nil {
		t.Fatal("want error for bad outcome")
	}
	if p.Window() != 5 {
		t.Fatal("Window() wrong")
	}
}

func TestFilteredSeriesMechanics(t *testing.T) {
	// All-ones stream, window 4, start prob 0: windowed probability climbs
	// 0.25, 0.5, 0.75, 1 and the filter snaps when the gap exceeds 0.3.
	pts := FilteredSeries([]int{1, 1, 1, 1, 1}, 0, 4, 0.3)
	wantWindow := []float64{0.25, 0.5, 0.75, 1, 1}
	for i, w := range wantWindow {
		if math.Abs(pts[i].WindowProb-w) > 1e-12 {
			t.Fatalf("point %d window prob %v, want %v", i, pts[i].WindowProb, w)
		}
	}
	// 0.25 ≤ 0.3 no update; 0.5 > 0.3 update to 0.5; 0.75−0.5 ≤ 0.3; 1−0.5 > 0.3 update.
	wantFiltered := []float64{0, 0.5, 0.5, 1, 1}
	wantUpdated := []bool{false, true, false, true, false}
	for i := range pts {
		if math.Abs(pts[i].Filtered-wantFiltered[i]) > 1e-12 || pts[i].Updated != wantUpdated[i] {
			t.Fatalf("point %d = %+v, want filtered %v updated %v",
				i, pts[i], wantFiltered[i], wantUpdated[i])
		}
	}
}

func TestFilteredSeriesLowThresholdUpdatesMore(t *testing.T) {
	g, _ := testWorkload(t, 4)
	v := trace.Fluctuating(g, 9, 1500, 0.45)
	sel := make([]int, len(v))
	for i := range v {
		sel[i] = v[i][0]
	}
	count := func(th float64) int {
		n := 0
		for _, pt := range FilteredSeries(sel, 0.5, 20, th) {
			if pt.Updated {
				n++
			}
		}
		return n
	}
	lo, hi := count(0.1), count(0.5)
	if lo <= hi {
		t.Fatalf("threshold 0.1 updated %d times, 0.5 %d times; want more at 0.1", lo, hi)
	}
	if hi == 0 {
		t.Fatal("threshold 0.5 never updated on a 0.45-amplitude stream")
	}
}

func TestManagerAdaptsAndBeatsMisprofiledStatic(t *testing.T) {
	g, cfg := testWorkload(t, 5)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tighten deadline to 1.5× nominal makespan.
	s0, err := BuildOnline(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err = g.WithDeadline(1.5 * s0.Makespan)
	if err != nil {
		t.Fatal(err)
	}

	// Workload strongly favors outcome 0 everywhere; the static profile
	// believes the opposite.
	vec := make(trace.Vectors, 800)
	for i := range vec {
		row := make([]int, g.NumForks())
		if i%10 == 9 {
			for fi := range row {
				row[fi] = 1
			}
		}
		vec[i] = row
	}
	gBad := g.Clone()
	for _, f := range gBad.Forks() {
		if err := gBad.SetBranchProbs(f, []float64{0.1, 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	static, err := BuildOnline(gBad, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stStatic, err := RunStatic(static, vec, sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	m, err := New(gBad, p, Options{Window: 20, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	stAdaptive, err := m.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	if stAdaptive.Calls == 0 {
		t.Fatal("adaptive manager never re-scheduled on a drifted workload")
	}
	if stAdaptive.AvgEnergy >= stStatic.AvgEnergy {
		t.Fatalf("adaptive avg energy %v not below misprofiled static %v",
			stAdaptive.AvgEnergy, stStatic.AvgEnergy)
	}
	if stAdaptive.Misses != 0 || stStatic.Misses != 0 {
		t.Fatalf("deadline misses: adaptive %d static %d", stAdaptive.Misses, stStatic.Misses)
	}
	if stAdaptive.Instances != 800 || stStatic.Instances != 800 {
		t.Fatal("instance counts wrong")
	}
}

func TestManagerThresholdControlsCallCount(t *testing.T) {
	g, cfg := testWorkload(t, 6)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	vec := trace.Fluctuating(g, 11, 1000, 0.45)
	calls := map[float64]int{}
	for _, th := range []float64{0.1, 0.5} {
		m, err := New(g, p, Options{Window: 20, Threshold: th})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run(vec)
		if err != nil {
			t.Fatal(err)
		}
		calls[th] = st.Calls
	}
	if calls[0.1] <= calls[0.5] {
		t.Fatalf("calls at T=0.1 (%d) not above T=0.5 (%d)", calls[0.1], calls[0.5])
	}
	if calls[0.1] == 0 {
		t.Fatal("T=0.1 never adapted on a fluctuating stream")
	}
}

func TestManagerThresholdOneNeverAdapts(t *testing.T) {
	g, cfg := testWorkload(t, 7)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	vec := trace.Fluctuating(g, 12, 300, 0.45)
	m, err := New(g, p, Options{Window: 20, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Calls != 0 {
		t.Fatalf("threshold 1 adapted %d times", st.Calls)
	}
	// And its energy equals the static schedule's.
	static, err := BuildOnline(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stStatic, err := RunStatic(static, vec, sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.AvgEnergy-stStatic.AvgEnergy) > 1e-9 {
		t.Fatalf("non-adapting manager energy %v != static %v", st.AvgEnergy, stStatic.AvgEnergy)
	}
}

func TestManagerValidation(t *testing.T) {
	g, cfg := testWorkload(t, 8)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, p, Options{Threshold: -1}); err == nil {
		t.Fatal("want error for negative threshold")
	}
	if _, err := New(g, p, Options{Threshold: 2}); err == nil {
		t.Fatal("want error for threshold > 1")
	}
	if _, err := New(g, p, Options{CacheSize: 64}); err == nil {
		t.Fatal("want error for a positive CacheSize: there is no schedule cache")
	}
	if _, err := New(g, p, Options{CacheSize: -1}); err != nil {
		t.Fatalf("a negative CacheSize means nothing, got %v", err)
	}
	m, err := New(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step([]int{0}); err == nil {
		t.Fatal("want error for short decision vector")
	}
	if m.Schedule() == nil {
		t.Fatal("manager must expose its schedule")
	}
	if len(m.Probs(0)) == 0 {
		t.Fatal("Probs accessor broken")
	}
}

func TestThresholdZeroExplicit(t *testing.T) {
	g, cfg := testWorkload(t, 14)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.SetThreshold(0)
	opts.Window = 20
	m, err := New(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.opts.Threshold != 0 {
		t.Fatalf("explicit T=0 replaced by %v", m.opts.Threshold)
	}
	vec := trace.Fluctuating(g, 5, 50, 0.45)
	st, err := m.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	// At T = 0 any drift crosses the threshold, so every instance triggers
	// one rescheduling.
	if st.Calls != len(vec) {
		t.Fatalf("T=0 made %d calls over %d instances, want one per instance", st.Calls, len(vec))
	}
}

func TestZeroValuesStillDefault(t *testing.T) {
	g, cfg := testWorkload(t, 15)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.opts.Threshold != DefaultThreshold || m.opts.Window != DefaultWindow {
		t.Fatalf("zero-valued options resolved to (W=%d, T=%v), want defaults (%d, %v)",
			m.opts.Window, m.opts.Threshold, DefaultWindow, DefaultThreshold)
	}
}

func TestWindowZeroExplicitRejected(t *testing.T) {
	g, cfg := testWorkload(t, 16)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.SetWindow(0)
	if _, err := New(g, p, opts); err == nil {
		t.Fatal("explicit window 0 must be rejected, not defaulted")
	}
}

func TestManagerDoesNotMutateCallerGraph(t *testing.T) {
	g, cfg := testWorkload(t, 9)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := g.BranchProbs(g.Forks()[0])
	m, err := New(g, p, Options{Window: 10, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	vec := trace.Fluctuating(g, 13, 200, 0.45)
	if _, err := m.Run(vec); err != nil {
		t.Fatal(err)
	}
	after := g.BranchProbs(g.Forks()[0])
	for k := range before {
		if before[k] != after[k] {
			t.Fatal("manager mutated the caller's graph probabilities")
		}
	}
}

func TestSmoothedEstimateNeverDegenerate(t *testing.T) {
	g, _ := testWorkload(t, 10)
	p, err := NewProfiler(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.Observe(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	raw := p.Estimate(0)
	smooth := p.smoothedInto(0, -1, nil)
	if raw[1] != 0 {
		t.Fatalf("raw estimate %v should be degenerate after flooding", raw)
	}
	if smooth[1] <= 0 || smooth[0] >= 1 {
		t.Fatalf("smoothed estimate %v must stay interior", smooth)
	}
	sum := 0.0
	for _, v := range smooth {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("smoothed estimate sums to %v", sum)
	}
}

func TestManagerStableWithoutDrift(t *testing.T) {
	// A stream that matches the profile exactly (deterministically
	// alternating to keep the window frequency at the profile value)
	// must never trigger re-scheduling at a coarse threshold. A flat
	// graph keeps every fork always-active, so every fork observes every
	// instance (a nested fork would see only one parity of the
	// alternation and drift legitimately).
	cfg := tgff.Config{Seed: 11, Nodes: 18, PEs: 3, Branches: 2, Category: tgff.Flat}
	g, p, err := tgff.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range g.Forks() {
		if err := g.SetBranchProbs(f, []float64{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(g, p, Options{Window: 20, Threshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	vec := make(trace.Vectors, 300)
	for i := range vec {
		row := make([]int, g.NumForks())
		for fi := range row {
			row[fi] = i % 2 // alternating keeps the window at 0.5
		}
		vec[i] = row
	}
	st, err := m.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Calls != 0 {
		t.Fatalf("drift-free stream triggered %d re-schedules", st.Calls)
	}
}

func TestManagerPerScenarioMode(t *testing.T) {
	g, cfg := testWorkload(t, 12)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err = TightenDeadline(g, p, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	vec := trace.Fluctuating(g, 21, 600, 0.45)

	run := func(perScenario bool) RunStats {
		m, err := New(g, p, Options{Window: 20, Threshold: 0.1, PerScenario: perScenario})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run(vec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	single := run(false)
	multi := run(true)
	if multi.Misses != 0 {
		t.Fatalf("per-scenario adaptive run missed %d deadlines", multi.Misses)
	}
	// Scenario-conditioned dispatch can only help the energy.
	if multi.AvgEnergy > single.AvgEnergy*1.001 {
		t.Fatalf("per-scenario adaptive energy %v worse than single-speed %v",
			multi.AvgEnergy, single.AvgEnergy)
	}
	if multi.Calls == 0 {
		t.Fatal("per-scenario manager never adapted")
	}
}

func TestStepDriftWithinBounds(t *testing.T) {
	g, cfg := testWorkload(t, 13)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, p, Options{Window: 10, Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	vec := trace.Fluctuating(g, 31, 120, 0.45)
	for i, row := range vec {
		res, err := m.Step(row)
		if err != nil {
			t.Fatal(err)
		}
		if res.Drift < 0 || res.Drift > 1 {
			t.Fatalf("step %d: drift %v out of [0,1]", i, res.Drift)
		}
		if res.Rescheduled && res.Drift != 0 && res.Drift < 0.0 {
			t.Fatalf("step %d: inconsistent reschedule flag", i)
		}
		if !res.Instance.DeadlineMet {
			t.Fatalf("step %d: deadline miss", i)
		}
	}
}
