package core

import (
	"math"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// recoveryWorkload builds a tightened-deadline workload plus a fault plan
// aggressive enough that the plain stretched runtime misses.
func recoveryWorkload(t *testing.T, seed int64, factor float64) (*ctg.Graph, *tgff.Config) {
	t.Helper()
	g, cfg := testWorkload(t, seed)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := TightenDeadline(g, p, factor)
	if err != nil {
		t.Fatal(err)
	}
	return g2, cfg
}

func recoveryPlan(t *testing.T, g *ctg.Graph, cfg *tgff.Config, spec faults.Spec) *faults.Plan {
	t.Helper()
	plan, err := faults.New(spec, g.NumTasks(), cfg.PEs)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestStepRejectsMalformedDecisions(t *testing.T) {
	g, cfg := recoveryWorkload(t, 61, 1.6)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nf := g.NumForks()
	bad := [][]int{
		make([]int, nf+1), // too long
		make([]int, nf-1), // too short
		nil,               // empty
		func() []int { // out-of-range outcome
			v := make([]int, nf)
			v[0] = 99
			return v
		}(),
		func() []int { // negative outcome
			v := make([]int, nf)
			v[0] = -1
			return v
		}(),
	}
	for i, v := range bad {
		if _, err := m.Step(v); err == nil {
			t.Errorf("malformed vector %d accepted", i)
		}
	}
	// The manager must remain usable after rejected steps.
	if _, err := m.Step(make([]int, nf)); err != nil {
		t.Fatalf("valid step after rejections: %v", err)
	}
}

func TestProbsBoundsAndCopySemantics(t *testing.T) {
	g, cfg := recoveryWorkload(t, 62, 1.6)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Probs(-1); got != nil {
		t.Fatalf("Probs(-1) = %v, want nil", got)
	}
	if got := m.Probs(g.NumForks()); got != nil {
		t.Fatalf("Probs(out of range) = %v, want nil", got)
	}
	probs := m.Probs(0)
	if probs == nil {
		t.Fatal("Probs(0) = nil for a valid fork")
	}
	orig := append([]float64(nil), probs...)
	for i := range probs {
		probs[i] = -42
	}
	again := m.Probs(0)
	for i := range again {
		if again[i] != orig[i] {
			t.Fatal("mutating the returned slice changed manager state")
		}
	}
}

func TestNewValidatesRecoveryOptions(t *testing.T) {
	g, cfg := recoveryWorkload(t, 63, 1.6)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	never, err := faults.NewTimeline(faults.FailureSpec{Seed: 9}, p.NumPEs())
	if err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{GuardBand: -0.1},
		{GuardBand: 1.5},
		{GuardBand: math.NaN()},
		// A failure timeline needs the recovery machinery to escalate to.
		{Failures: never},
	}
	for i, o := range bad {
		if _, err := New(g, p, o); err == nil {
			t.Errorf("options %d (%+v) accepted", i, o)
		}
	}
	// SetThreshold(0) is the legitimate always-reschedule edge.
	var o2 Options
	o2.SetThreshold(0)
	m, err := New(g, p, o2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(make([]int, g.NumForks())); err != nil {
		t.Fatal(err)
	}
}

// TestFallbackStaysFullSpeed pins that fallback replays never touch the
// schedules they fall back from: after a run with activations, the
// fallback is still the full-speed worst-case schedule and no reschedule
// ever adopted it as the incumbent.
func TestFallbackStaysFullSpeed(t *testing.T) {
	g, cfg := recoveryWorkload(t, 64, 1.25)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := recoveryPlan(t, g, cfg, faults.Spec{Seed: 9, OverrunProb: 0.6, OverrunFactor: 1.3})
	m, err := New(g, p, Options{Faults: plan, Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	fb := m.Fallback()
	if fb == nil {
		t.Fatal("recovery manager has no fallback schedule")
	}
	vec := trace.Fluctuating(g, 5, 400, 0.45)
	for i, v := range vec {
		r, err := m.Step(v)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rescheduled && m.Schedule() == fb {
			t.Fatalf("instance %d: the reschedule adopted the fallback as the incumbent", i)
		}
	}
	if m.st.activations == 0 {
		t.Fatal("test needs fallback activations to be meaningful")
	}
	if m.Fallback() != fb {
		t.Fatal("the fallback schedule was rebuilt without a topology change")
	}
	for tk, sp := range fb.Speed {
		if sp != 1 {
			t.Fatalf("fallback task %d at speed %v, want 1", tk, sp)
		}
	}
}

func TestRecoveryReducesMissesAtLowerEnergyThanFullSpeed(t *testing.T) {
	// The acceptance-criteria triangle on a synthetic workload: under an
	// aggressive overrun plan, guarded+fallback must miss less than the
	// unguarded adaptive runtime and spend less energy than the full-speed
	// static baseline.
	g, cfg := recoveryWorkload(t, 65, 1.6)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := recoveryPlan(t, g, cfg, faults.Spec{Seed: 42, OverrunProb: 0.25, OverrunFactor: 1.2})
	vec := trace.Fluctuating(g, 7, 600, 0.45)

	unguarded, err := New(g, p, Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	stU, err := unguarded.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := New(g, p, Options{Faults: plan, Recovery: true, GuardBand: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	stG, err := guarded.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	// Full-speed baseline: the precomputed fallback replayed statically.
	stF, err := RunStatic(guarded.Fallback(), vec, sim.Config{Faults: plan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stU.Misses == 0 {
		t.Fatal("unguarded runtime never missed; fault plan too weak for this test")
	}
	if stG.Misses >= stU.Misses {
		t.Fatalf("guarded misses %d not below unguarded %d", stG.Misses, stU.Misses)
	}
	if stG.TotalEnergy >= stF.TotalEnergy {
		t.Fatalf("guarded energy %v not below full-speed %v", stG.TotalEnergy, stF.TotalEnergy)
	}
	if stG.FallbackActivations == 0 || stG.MissesAvoided == 0 {
		t.Fatalf("recovery counters empty: %+v", stG)
	}
	if stG.MissesAvoided > stG.FallbackActivations {
		t.Fatalf("misses avoided %d exceeds activations %d", stG.MissesAvoided, stG.FallbackActivations)
	}
}

func TestCircuitBreakerEscalatesUnderSustainedMisses(t *testing.T) {
	g, cfg := recoveryWorkload(t, 66, 1.2)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := recoveryPlan(t, g, cfg, faults.Spec{Seed: 3, OverrunProb: 0.8, OverrunFactor: 1.25})
	m, err := New(g, p, Options{Faults: plan, Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	vec := trace.Fluctuating(g, 9, 500, 0.45)
	st, err := m.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxGuardLevel == 0 {
		t.Fatalf("breaker never escalated under a sustained 80%% overrun plan: %+v", st)
	}
	if m.GuardLevel() > st.MaxGuardLevel {
		t.Fatal("current level above recorded max")
	}
}

func TestStepDeterministicWithFaults(t *testing.T) {
	g, cfg := recoveryWorkload(t, 67, 1.4)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := faults.Spec{Seed: 21, OverrunProb: 0.3, OverrunFactor: 1.2, PESlowProb: 0.1, PESlowFactor: 1.1}
	vec := trace.Fluctuating(g, 4, 300, 0.45)
	run := func() RunStats {
		plan := recoveryPlan(t, g, cfg, spec)
		m, err := New(g, p, Options{Faults: plan, Recovery: true, GuardBand: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run(vec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
