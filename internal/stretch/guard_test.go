package stretch

import (
	"math"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/tgff"
)

func guardWorkload(t *testing.T, seed int64) (*ctg.Graph, *sched.Schedule) {
	t.Helper()
	g, p, err := tgff.Generate(tgff.Config{
		Seed: seed, Nodes: 16, PEs: 3, Branches: 2, Category: tgff.ForkJoin,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := g.WithDeadline(1.5 * s.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ctg.Analyze(g2)
	if err != nil {
		t.Fatal(err)
	}
	s, err = sched.DLS(a2, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	return g2, s
}

func TestGuardedSpeedForTime(t *testing.T) {
	d := platform.Continuous()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// guard 0 must be bit-for-bit SpeedForTime.
	for _, budget := range []float64{5, 10, 17.3, 100} {
		if a, b := d.GuardedSpeedForTime(10, budget, 0), d.SpeedForTime(10, budget); a != b {
			t.Fatalf("guard 0 diverged at budget %v: %v vs %v", budget, a, b)
		}
	}
	// guard reserves slack: speed monotonically increases with guard.
	prev := 0.0
	for _, g := range []float64{0, 0.25, 0.5, 0.75, 1} {
		sp := d.GuardedSpeedForTime(10, 40, g)
		if sp < prev {
			t.Fatalf("guard %v speed %v below guard-lighter speed %v", g, sp, prev)
		}
		prev = sp
	}
	if sp := d.GuardedSpeedForTime(10, 40, 1); sp != 1 {
		t.Fatalf("full guard speed %v, want 1", sp)
	}
	// guard 0.5 on slack 30: effective budget 25 → speed 0.4.
	if sp := d.GuardedSpeedForTime(10, 40, 0.5); math.Abs(sp-0.4) > 1e-12 {
		t.Fatalf("half-guard speed %v, want 0.4", sp)
	}
	// Over-range guards clamp instead of producing negative budgets.
	if sp := d.GuardedSpeedForTime(10, 40, 2); sp != 1 {
		t.Fatalf("clamped guard speed %v, want 1", sp)
	}
}

func TestHeuristicGuardedValidatesAndBounds(t *testing.T) {
	_, s := guardWorkload(t, 21)
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := Heuristic(s.Clone(), platform.Continuous(), Options{Guard: bad}); err == nil {
			t.Fatalf("guard %v: want error", bad)
		}
	}
	if _, err := PerScenario(s.Clone(), platform.Continuous(), math.Inf(1), nil, nil); err == nil {
		t.Fatal("infinite guard: want error")
	}
}

func TestGuardTradesEnergyForMargin(t *testing.T) {
	// More guard → faster speeds → more energy but earlier nominal finishes:
	// the classic robustness/energy tradeoff, monotone in the guard.
	_, base := guardWorkload(t, 40)
	prevEnergy := -1.0
	for _, guard := range []float64{0, 0.2, 0.5, 1} {
		s := base.Clone()
		r, err := Heuristic(s, platform.Continuous(), Options{Guard: guard})
		if err != nil {
			t.Fatal(err)
		}
		if r.ExpectedEnergy < prevEnergy-1e-9 {
			t.Fatalf("guard %v lowered energy: %v after %v", guard, r.ExpectedEnergy, prevEnergy)
		}
		prevEnergy = r.ExpectedEnergy
		for i, sp := range s.Speed {
			if sp < base.Speed[i]-1e-12 && guard == 1 {
				t.Fatalf("full guard stretched task %d to %v", i, sp)
			}
		}
		if guard == 1 && r.Stretched != 0 {
			t.Fatalf("full guard stretched %d tasks", r.Stretched)
		}
	}
}

func TestPerScenarioGuardedMatchesAndTightens(t *testing.T) {
	_, s := guardWorkload(t, 50)
	plain, err := PerScenario(s, platform.Continuous(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := PerScenario(s, platform.Continuous(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for si := range plain.Speeds {
		for ti := range plain.Speeds[si] {
			if plain.Speeds[si][ti] != zero.Speeds[si][ti] {
				t.Fatalf("guard 0 diverged at scenario %d task %d", si, ti)
			}
		}
	}
	guarded, err := PerScenario(s, platform.Continuous(), 0.4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Guarding is a robustness/energy tradeoff: the guarded table must cost
	// more energy overall (individual tasks may stretch deeper when an
	// earlier task's reserved slack cascades to them, so the comparison is
	// aggregate, not per entry).
	pe := ExpectedEnergyWithScenarioSpeeds(s, plain)
	ge := ExpectedEnergyWithScenarioSpeeds(s, guarded)
	if ge <= pe {
		t.Fatalf("guarded expected energy %v not above plain %v", ge, pe)
	}
	full, err := PerScenario(s, platform.Continuous(), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for si := range full.Speeds {
		for ti, sp := range full.Speeds[si] {
			if sp != 1 {
				t.Fatalf("full guard left scenario %d task %d at %v", si, ti, sp)
			}
		}
	}
}
