package sim

import (
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/tgff"
)

func faultWorkload(t *testing.T, seed int64) *sched.Schedule {
	t.Helper()
	g, p, err := tgff.Generate(tgff.Config{
		Seed: seed, Nodes: 18, PEs: 3, Branches: 2, Category: tgff.ForkJoin,
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
	g2, err := g.WithDeadline(1.4 * s.Makespan)
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
	if _, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{}); err != nil {
		t.Fatal(err)
	}
	return s
}

func faultPlan(t *testing.T, s *sched.Schedule, spec faults.Spec) *faults.Plan {
	t.Helper()
	plan, err := faults.New(spec, s.G.NumTasks(), s.P.NumPEs())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestNilFaultsIsBitForBitNominal(t *testing.T) {
	// A zero-probability plan and a nil plan must both reproduce the
	// unperturbed replay exactly: same bits, not just same tolerance.
	s := faultWorkload(t, 11)
	zero := faultPlan(t, s, faults.Spec{Seed: 1})
	for si := 0; si < s.A.NumScenarios(); si++ {
		base, err := Replay(s, si, Config{})
		if err != nil {
			t.Fatal(err)
		}
		withZero, err := Replay(s, si, Config{Faults: zero, FaultInstance: 3})
		if err != nil {
			t.Fatal(err)
		}
		if base.Energy != withZero.Energy || base.Makespan != withZero.Makespan {
			t.Fatalf("scenario %d: zero plan diverged: %v/%v vs %v/%v",
				si, base.Energy, base.Makespan, withZero.Energy, withZero.Makespan)
		}
		if base.NominalEnergy != base.Energy || base.NominalMakespan != base.Makespan {
			t.Fatalf("scenario %d: nominal fields diverge without faults", si)
		}
		if base.Overruns != 0 || base.MaxTaskLateness != 0 || base.Lateness != 0 {
			t.Fatalf("scenario %d: fault counters set without faults: %+v", si, base)
		}
	}
}

func TestFaultyReplayReportsPerturbation(t *testing.T) {
	s := faultWorkload(t, 12)
	plan := faultPlan(t, s, faults.Spec{Seed: 42, OverrunProb: 0.5, OverrunFactor: 1.5})
	sawOverrun := false
	for si := 0; si < s.A.NumScenarios(); si++ {
		inst, err := Replay(s, si, Config{Faults: plan, FaultInstance: si})
		if err != nil {
			t.Fatal(err)
		}
		if inst.Makespan < inst.NominalMakespan-1e-12 {
			t.Fatalf("scenario %d: perturbed makespan %v below nominal %v",
				si, inst.Makespan, inst.NominalMakespan)
		}
		if inst.Energy < inst.NominalEnergy-1e-12 {
			t.Fatalf("scenario %d: perturbed energy %v below nominal %v",
				si, inst.Energy, inst.NominalEnergy)
		}
		if inst.Overruns > 0 {
			sawOverrun = true
			if inst.Makespan <= inst.NominalMakespan && inst.MaxTaskLateness <= 0 {
				t.Fatalf("scenario %d: overruns with no observable slip", si)
			}
		}
		if !inst.DeadlineMet && inst.Lateness <= 0 {
			t.Fatalf("scenario %d: miss without lateness", si)
		}
		if inst.DeadlineMet && inst.Lateness != 0 {
			t.Fatalf("scenario %d: lateness %v on a met deadline", si, inst.Lateness)
		}
	}
	if !sawOverrun {
		t.Fatal("50% overrun plan never perturbed any scenario")
	}
}

func TestExhaustiveFaultsDeterministicAcrossWorkerBounds(t *testing.T) {
	s := faultWorkload(t, 13)
	plan := faultPlan(t, s, faults.Spec{
		Seed: 42, OverrunProb: 0.25, OverrunFactor: 1.2,
		HotTasks: 2, HotFactor: 1.4, BurstProb: 0.1, BurstLen: 4,
		PESlowProb: 0.05, PESlowFactor: 1.1,
	})
	cfg := Config{Faults: plan}
	var ref Summary
	for i, workers := range []int{1, 2, 4, 16} {
		prev := par.SetLimit(workers)
		sum, err := Exhaustive(s, cfg)
		par.SetLimit(prev)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = sum
			continue
		}
		if sum != ref {
			t.Fatalf("workers=%d: summary diverged: %+v vs %+v", workers, sum, ref)
		}
	}
	if ref.ExpectedEnergy <= ref.NominalExpectedEnergy {
		t.Fatalf("perturbed expected energy %v not above nominal %v under a 25%% overrun plan",
			ref.ExpectedEnergy, ref.NominalExpectedEnergy)
	}
	if ref.Overruns == 0 {
		t.Fatal("no overruns recorded under a 25% overrun plan")
	}
}

func TestMaxFactorBoundsSlip(t *testing.T) {
	// No perturbed makespan may exceed nominal · MaxFactor: the plan's
	// worst case bounds every timeline (execution times scale by at most
	// MaxFactor and the dispatch order is unchanged).
	s := faultWorkload(t, 14)
	plan := faultPlan(t, s, faults.Spec{Seed: 7, OverrunProb: 0.4, OverrunFactor: 1.3, PESlowProb: 0.2, PESlowFactor: 1.2})
	bound := plan.MaxFactor()
	for si := 0; si < s.A.NumScenarios(); si++ {
		for instIdx := 0; instIdx < 10; instIdx++ {
			inst, err := Replay(s, si, Config{Faults: plan, FaultInstance: instIdx})
			if err != nil {
				t.Fatal(err)
			}
			if inst.Makespan > inst.NominalMakespan*bound+1e-9 {
				t.Fatalf("scenario %d inst %d: makespan %v exceeds nominal %v × MaxFactor %v",
					si, instIdx, inst.Makespan, inst.NominalMakespan, bound)
			}
		}
	}
}
