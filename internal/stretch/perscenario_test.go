package stretch

import (
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/tgff"
)

func TestPerScenarioNeedsUnstretchedSchedule(t *testing.T) {
	s := prepare(t, 50, 1.5)
	if _, err := Heuristic(s, platform.Continuous(), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := PerScenario(s, platform.Continuous(), 0, nil, nil); err == nil {
		t.Fatal("want error on an already-stretched schedule")
	}
}

func TestPerScenarioCausality(t *testing.T) {
	// Scenarios that agree on a task's ancestor forks must assign it the
	// same speed.
	for seed := int64(0); seed < 10; seed++ {
		s := prepare(t, 600+seed, 1.6)
		sp, err := PerScenario(s, platform.Continuous(), 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		a := s.A
		anc := reachForks(s, true)
		for task := 0; task < s.G.NumTasks(); task++ {
			byKey := map[string]float64{}
			for si := 0; si < a.NumScenarios(); si++ {
				key := ancestorKey(a.Scenario(si).Assign, anc[task])
				if prev, ok := byKey[key]; ok {
					if prev != sp.Speeds[si][task] {
						t.Fatalf("seed %d task %d: speeds %v and %v disagree within knowledge class %q",
							seed, task, prev, sp.Speeds[si][task], key)
					}
				} else {
					byKey[key] = sp.Speeds[si][task]
				}
			}
		}
	}
}

func TestPerScenarioBeatsSingleSpeed(t *testing.T) {
	// Expected energy with scenario-conditioned speeds must never lose to
	// the single-speed heuristic, and should win on graphs with
	// contrasting minterms.
	var single, multi float64
	for seed := int64(0); seed < 12; seed++ {
		sSingle := prepare(t, 700+seed, 1.6)
		resH, err := Heuristic(sSingle, platform.Continuous(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		sMulti := prepare(t, 700+seed, 1.6)
		sp, err := PerScenario(sMulti, platform.Continuous(), 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		e := ExpectedEnergyWithScenarioSpeeds(sMulti, sp)
		single += resH.ExpectedEnergy
		multi += e
	}
	if multi > single*1.001 {
		t.Fatalf("per-scenario speeds averaged %v, single-speed %v", multi, single)
	}
	if multi > single*0.97 {
		t.Logf("note: per-scenario advantage small on this batch (%v vs %v)", multi, single)
	}
}

func TestPerScenarioMeetsDeadlinesInReplay(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g, p, err := tgff.Generate(tgff.Config{
			Seed: 800 + seed, Nodes: 16 + int(seed%6), PEs: 2 + int(seed%3),
			Branches: 1 + int(seed%3), Category: tgff.ForkJoin,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := ctg.Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		s0, err := sched.DLS(a, p, sched.Modified())
		if err != nil {
			t.Fatal(err)
		}
		g2, err := g.WithDeadline(1.4 * s0.Makespan)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := ctg.Analyze(g2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.DLS(a2, p, sched.Modified())
		if err != nil {
			t.Fatal(err)
		}
		sp, err := PerScenario(s, platform.Continuous(), 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := sim.Exhaustive(s, sim.Config{ScenarioSpeeds: sp.Speeds})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Misses > 0 {
			t.Fatalf("seed %d: %d deadline misses under per-scenario speeds (worst %v vs %v)",
				seed, sum.Misses, sum.WorstMakespan, g2.Deadline())
		}
		// The replayed expected energy matches the closed form.
		want := ExpectedEnergyWithScenarioSpeeds(s, sp)
		if diff := sum.ExpectedEnergy - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("seed %d: replay energy %v, closed form %v", seed, sum.ExpectedEnergy, want)
		}
	}
}

func TestPerScenarioSpeedsInRange(t *testing.T) {
	s := prepare(t, 55, 1.8)
	sp, err := PerScenario(s, platform.Continuous(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for si := range sp.Speeds {
		for task, v := range sp.Speeds[si] {
			if !(v > 0) || v > 1 {
				t.Fatalf("scenario %d task %d speed %v out of range", si, task, v)
			}
		}
	}
}
