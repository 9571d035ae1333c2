package sim

import (
	"math"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/tgff"
)

// paperExample builds the CTG of the paper's Example 1 on a wide platform
// (every task gets its own PE, so PE contention never hides dependency
// timing).
func paperExample(t *testing.T) *sched.Schedule {
	t.Helper()
	b := ctg.NewBuilder()
	t1 := b.AddTask("tau1", ctg.AndNode)
	t2 := b.AddTask("tau2", ctg.AndNode)
	t3 := b.AddTask("tau3", ctg.AndNode)
	t4 := b.AddTask("tau4", ctg.AndNode)
	t5 := b.AddTask("tau5", ctg.AndNode)
	t6 := b.AddTask("tau6", ctg.AndNode)
	t7 := b.AddTask("tau7", ctg.AndNode)
	t8 := b.AddTask("tau8", ctg.OrNode)
	b.AddEdge(t1, t2, 0)
	b.AddEdge(t1, t3, 0)
	b.AddCondEdge(t3, t4, 0, 0) // a1
	b.AddCondEdge(t3, t5, 0, 1) // a2
	b.AddCondEdge(t5, t6, 0, 0)
	b.AddCondEdge(t5, t7, 0, 1)
	b.AddEdge(t2, t8, 0)
	b.AddEdge(t4, t8, 0)
	b.SetBranchProbs(t3, []float64{0.5, 0.5})
	b.SetBranchProbs(t5, []float64{0.5, 0.5})
	g, err := b.Build(1000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	pb := platform.NewBuilder(8, 8)
	// τ2 is short so the or-node's start is governed by the interesting
	// dependency; τ3 (the fork) is long; the a2 arm (τ5, τ6, τ7) is tiny
	// so the or-node's finish dominates the makespan under strict mode.
	// Each task is pinned to its own PE (fast there, prohibitive
	// elsewhere), so PE serialization never masks dependency timing.
	wcets := []float64{5, 5, 30, 5, 1, 1, 1, 5}
	for i, w := range wcets {
		row := make([]float64, 8)
		en := make([]float64, 8)
		for pe := range row {
			row[pe] = w * 1000
			en[pe] = 1
			if pe == i {
				row[pe] = w
			}
		}
		pb.SetTask(i, row, en)
	}
	pb.SetAllLinks(1000, 0)
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStrictOrDepsWaitForDecidingFork(t *testing.T) {
	s := paperExample(t)
	// Scenario a2·b* : τ4 is inactive, so τ8's only active pred is τ2
	// (finishes at 10). Non-strict: τ8 may start right after τ2. Strict:
	// τ8 must wait for τ3 (the fork that decides τ4), which finishes at
	// 5+30 = 35.
	var scenario = -1
	for si := 0; si < s.A.NumScenarios(); si++ {
		sc := s.A.Scenario(si)
		if !sc.Active.Get(3) { // τ4 inactive
			scenario = si
			break
		}
	}
	if scenario < 0 {
		t.Fatal("no scenario with inactive tau4")
	}
	loose, err := Replay(s, scenario, Config{})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Replay(s, scenario, Config{StrictOrDeps: true})
	if err != nil {
		t.Fatal(err)
	}
	if !(strict.Makespan > loose.Makespan) {
		t.Fatalf("strict or-deps did not delay the or-node: strict %v vs loose %v",
			strict.Makespan, loose.Makespan)
	}
	// τ8 (wcet 5) must finish at ≥ 35+5 = 40 under strict semantics; the
	// a2 arm (τ5 at 35..40, τ6/τ7 at 40..45) also bounds the makespan.
	if strict.Makespan < 40-1e-9 {
		t.Fatalf("strict makespan %v, want ≥ 40", strict.Makespan)
	}
	// In the a1 scenario τ4 is active, so both modes agree.
	var a1 = -1
	for si := 0; si < s.A.NumScenarios(); si++ {
		if s.A.Scenario(si).Active.Get(3) {
			a1 = si
			break
		}
	}
	l1, err := Replay(s, a1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Replay(s, a1, Config{StrictOrDeps: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l1.Makespan-s1.Makespan) > 1e-9 {
		t.Fatalf("modes disagree when all preds are active: %v vs %v", l1.Makespan, s1.Makespan)
	}
}

func TestStrictOrDepsStillMeetDeadlines(t *testing.T) {
	// The path model covers the fork→or chain, so strict semantics must
	// not cause deadline misses on stretched schedules.
	for seed := int64(0); seed < 20; seed++ {
		g, p, err := tgff.Generate(tgff.Config{
			Seed: 1300 + seed, Nodes: 18, PEs: 3, Branches: 3,
			Category: tgff.ForkJoin,
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
		g2, err := g.WithDeadline(1.3 * s0.Makespan)
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
		if _, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{}); err != nil {
			t.Fatal(err)
		}
		sum, err := Exhaustive(s, Config{StrictOrDeps: true})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Misses > 0 {
			t.Fatalf("seed %d: %d misses under strict or-deps (worst %v vs %v)",
				seed, sum.Misses, sum.WorstMakespan, g2.Deadline())
		}
	}
}

func TestSwitchOverheadAccounting(t *testing.T) {
	// A chain of three tasks on one PE with alternating speeds pays two
	// transitions; uniform speeds pay none.
	b := ctg.NewBuilder()
	t0 := b.AddTask("", ctg.AndNode)
	t1 := b.AddTask("", ctg.AndNode)
	t2 := b.AddTask("", ctg.AndNode)
	b.AddEdge(t0, t1, 0)
	b.AddEdge(t1, t2, 0)
	g, err := b.Build(1000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	pb := platform.NewBuilder(3, 1)
	for i := 0; i < 3; i++ {
		pb.SetUniformTask(i, 10, 4)
	}
	pb.SetAllLinks(1, 0)
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	s.Speed[0], s.Speed[1], s.Speed[2] = 1, 0.5, 1

	cfg := Config{SwitchTime: 2, SwitchEnergy: 0.5}
	inst, err := Replay(s, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Makespan: 10 + 2 + 20 + 2 + 10 = 44; energy: 4 + 1 + 4 + 2·0.5 = 10.
	if math.Abs(inst.Makespan-44) > 1e-9 {
		t.Fatalf("makespan %v, want 44", inst.Makespan)
	}
	if math.Abs(inst.Energy-10) > 1e-9 {
		t.Fatalf("energy %v, want 10", inst.Energy)
	}

	// Uniform speeds: no switch cost.
	s.Speed[1] = 1
	inst, err = Replay(s, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inst.Makespan-30) > 1e-9 || math.Abs(inst.Energy-12) > 1e-9 {
		t.Fatalf("uniform speeds: makespan %v energy %v, want 30/12", inst.Makespan, inst.Energy)
	}
}
