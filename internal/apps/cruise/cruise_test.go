package cruise

import (
	"math"
	"testing"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/trace"
)

func TestBuildMatchesPaperCounts(t *testing.T) {
	g, p, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 32 {
		t.Fatalf("tasks = %d, want 32 (paper: 32 tasks)", g.NumTasks())
	}
	if g.NumForks() != 2 {
		t.Fatalf("forks = %d, want 2 (paper: two branching nodes)", g.NumForks())
	}
	if p.NumPEs() != 5 {
		t.Fatalf("PEs = %d, want 5", p.NumPEs())
	}
}

func TestThreeMinterms(t *testing.T) {
	g, _, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	// decelerate, accelerate·smooth, accelerate·corrective.
	if a.NumScenarios() != 3 {
		t.Fatalf("scenarios = %d, want 3 (paper: only three minterms)", a.NumScenarios())
	}
}

func TestArmsAreEnergyBalanced(t *testing.T) {
	// The paper attributes the small adaptive gain to near-equal minterm
	// energies; verify the scenario energies stay within 40% of each
	// other (at nominal speed, averaged over PEs).
	g, p, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	avgEnergy := func(task ctg.TaskID) float64 {
		sum := 0.0
		for pe := 0; pe < p.NumPEs(); pe++ {
			sum += p.Energy(int(task), pe)
		}
		return sum / float64(p.NumPEs())
	}
	var emin, emax float64 = math.Inf(1), 0
	for si := 0; si < a.NumScenarios(); si++ {
		e := a.ScenarioWeight(si, avgEnergy)
		if e < emin {
			emin = e
		}
		if e > emax {
			emax = e
		}
	}
	if emax/emin > 1.4 {
		t.Fatalf("scenario energies too far apart: %v vs %v", emin, emax)
	}
}

func TestEndToEndWithPaperDeadline(t *testing.T) {
	g, p, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	// "the deadline we used was double of the optimum schedule length".
	g, err = core.TightenDeadline(g, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.BuildOnline(g, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sim.Exhaustive(s, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Misses > 0 {
		t.Fatalf("%d deadline misses", sum.Misses)
	}

	// Adaptive run over a road-condition trace.
	vec := trace.RoadSequence(g, 1, 400)
	mgr, err := core.New(g, p, core.Options{Window: 20, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 0 {
		t.Fatalf("%d adaptive deadline misses", st.Misses)
	}
	if st.Calls == 0 {
		t.Fatal("no adaptation on a road trace with changing conditions")
	}
}
