package stretch

import (
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/tgff"
)

// prepare builds a scheduled random CTG with the given deadline factor.
func prepare(t *testing.T, seed int64, factor float64) *sched.Schedule {
	t.Helper()
	g, p, err := tgff.Generate(tgff.Config{
		Seed: seed, Nodes: 16 + int(seed%8), PEs: 2 + int(seed%3),
		Branches: int(seed % 4), Category: tgff.ForkJoin,
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
	g2, err := g.WithDeadline(factor * s0.Makespan)
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
	return s
}

// Property: a looser deadline never yields higher expected energy — more
// slack can only help every stretcher.
func TestEnergyMonotoneInDeadline(t *testing.T) {
	factors := []float64{1.1, 1.3, 1.6, 2.0, 3.0}
	for seed := int64(0); seed < 12; seed++ {
		type runFn func(*sched.Schedule) (*Result, error)
		runs := map[string]runFn{
			"heuristic": func(s *sched.Schedule) (*Result, error) {
				return heuristicPtr(s)
			},
			"worstcase": func(s *sched.Schedule) (*Result, error) {
				return WorstCase(s, platform.Continuous())
			},
		}
		for name, run := range runs {
			prev := -1.0
			for fi := len(factors) - 1; fi >= 0; fi-- {
				s := prepare(t, seed, factors[fi])
				res, err := run(s)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, name, err)
				}
				// Iterating factors from loosest to tightest: energy must
				// be non-decreasing as the deadline tightens.
				if prev >= 0 && res.ExpectedEnergy < prev-1e-9 {
					t.Fatalf("seed %d %s: energy %v at factor %v below %v at looser deadline",
						seed, name, res.ExpectedEnergy, factors[fi], prev)
				}
				prev = res.ExpectedEnergy
			}
		}
	}
}

// Property: stretching never raises any task's speed above 1 and never
// lowers expected energy below the theoretical floor (all tasks at the
// minimum speed).
func TestStretchedEnergyWithinBounds(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		s := prepare(t, 200+seed, 2.0)
		res, err := Heuristic(s, platform.Continuous(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		floor := 0.0
		minSpeed := platform.DefaultMinSpeed
		for task := 0; task < s.G.NumTasks(); task++ {
			id := ctg.TaskID(task)
			floor += s.A.ActivationProb(id) * s.NominalEnergy(id) * minSpeed * minSpeed
		}
		if res.ExpectedEnergy < floor-1e-9 {
			t.Fatalf("seed %d: energy %v below physical floor %v", seed, res.ExpectedEnergy, floor)
		}
	}
}

// Property: the heuristic is deterministic — same schedule, same speeds.
func TestHeuristicDeterministic(t *testing.T) {
	s1 := prepare(t, 33, 1.5)
	s2 := prepare(t, 33, 1.5)
	if _, err := Heuristic(s1, platform.Continuous(), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Heuristic(s2, platform.Continuous(), Options{}); err != nil {
		t.Fatal(err)
	}
	for task := range s1.Speed {
		if s1.Speed[task] != s2.Speed[task] {
			t.Fatalf("task %d: speeds %v vs %v differ across identical runs",
				task, s1.Speed[task], s2.Speed[task])
		}
	}
}

// Property: discrete-level stretching is never better than continuous (the
// levels are a subset of the continuous range) but stays deadline-safe.
func TestDiscreteNeverBeatsContinuous(t *testing.T) {
	levels := platform.Discrete(0.2, 0.4, 0.6, 0.8, 1)
	for seed := int64(0); seed < 12; seed++ {
		sc := prepare(t, 400+seed, 1.7)
		resC, err := Heuristic(sc, platform.Continuous(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		sd := prepare(t, 400+seed, 1.7)
		resD, err := Heuristic(sd, levels, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if resD.ExpectedEnergy < resC.ExpectedEnergy-1e-9 {
			t.Fatalf("seed %d: discrete energy %v beats continuous %v",
				seed, resD.ExpectedEnergy, resC.ExpectedEnergy)
		}
		if resD.WorstDelay > sd.G.Deadline()+1e-6 {
			t.Fatalf("seed %d: discrete stretching violated deadline", seed)
		}
	}
}
