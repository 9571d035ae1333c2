package sim

import (
	"math"
	"math/rand"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/tgff"
)

func uniformPlatform(t *testing.T, tasks, pes int, wcet, energy float64) *platform.Platform {
	t.Helper()
	b := platform.NewBuilder(tasks, pes)
	for i := 0; i < tasks; i++ {
		b.SetUniformTask(i, wcet, energy)
	}
	b.SetAllLinks(1, 0.1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// forkGraph builds fork → {arm0, arm1} → or-join, single PE.
func forkSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	b := ctg.NewBuilder()
	f := b.AddTask("fork", ctg.AndNode)
	a0 := b.AddTask("arm0", ctg.AndNode)
	a1 := b.AddTask("arm1", ctg.AndNode)
	j := b.AddTask("join", ctg.OrNode)
	b.AddCondEdge(f, a0, 0, 0)
	b.AddCondEdge(f, a1, 0, 1)
	b.AddEdge(a0, j, 0)
	b.AddEdge(a1, j, 0)
	b.SetBranchProbs(f, []float64{0.7, 0.3})
	g, err := b.Build(100)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	p := uniformPlatform(t, 4, 1, 10, 2)
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReplaySkipsInactiveArm(t *testing.T) {
	s := forkSchedule(t)
	for si := 0; si < s.A.NumScenarios(); si++ {
		inst, err := Replay(s, si, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// Each scenario executes fork, one arm, join = 3 tasks.
		if inst.Executed != 3 {
			t.Fatalf("scenario %d executed %d tasks, want 3", si, inst.Executed)
		}
		// Full speed: 3 × 10 time units, 3 × 2 energy; the inactive arm
		// contributes nothing even though the static schedule reserved
		// overlapping time for both arms.
		if math.Abs(inst.Makespan-30) > 1e-9 {
			t.Fatalf("scenario %d makespan %v, want 30", si, inst.Makespan)
		}
		if math.Abs(inst.Energy-6) > 1e-9 {
			t.Fatalf("scenario %d energy %v, want 6", si, inst.Energy)
		}
		if !inst.DeadlineMet {
			t.Fatalf("scenario %d missed a trivially loose deadline", si)
		}
	}
}

func TestReplayDecisions(t *testing.T) {
	s := forkSchedule(t)
	inst0, err := ReplayDecisions(s, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	inst1, err := ReplayDecisions(s, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if inst0.Scenario == inst1.Scenario {
		t.Fatal("different decisions resolved to the same scenario")
	}
	if _, err := ReplayDecisions(s, []int{0, 0}); err == nil {
		t.Fatal("want error for wrong decision vector length")
	}
	if _, err := Replay(s, 99, Config{}); err == nil {
		t.Fatal("want error for out-of-range scenario")
	}
}

func TestReplayCommunicationTiming(t *testing.T) {
	// Producer pinned to PE0, consumer to PE1: makespan must include the
	// transfer, and energy the transmission cost.
	b := ctg.NewBuilder()
	src := b.AddTask("", ctg.AndNode)
	dst := b.AddTask("", ctg.AndNode)
	b.AddEdge(src, dst, 10)
	g, err := b.Build(1000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	pb := platform.NewBuilder(2, 2)
	pb.SetTask(0, []float64{10, 1000}, []float64{3, 3})
	pb.SetTask(1, []float64{1000, 10}, []float64{3, 3})
	pb.SetAllLinks(2, 0.5) // 5 tu transfer, 5 energy
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Replay(s, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inst.Makespan-25) > 1e-9 { // 10 + 5 + 10
		t.Fatalf("makespan %v, want 25", inst.Makespan)
	}
	if math.Abs(inst.Energy-11) > 1e-9 { // 3 + 3 + 10·0.5
		t.Fatalf("energy %v, want 11", inst.Energy)
	}
}

func TestReplayRespectsSpeeds(t *testing.T) {
	s := forkSchedule(t)
	// Slow down the join task only.
	s.Speed[3] = 0.5
	inst, err := Replay(s, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inst.Makespan-40) > 1e-9 { // 10 + 10 + 20
		t.Fatalf("makespan %v, want 40", inst.Makespan)
	}
	// Energy of join scales with s²: 2·0.25 = 0.5; total 2+2+0.5.
	if math.Abs(inst.Energy-4.5) > 1e-9 {
		t.Fatalf("energy %v, want 4.5", inst.Energy)
	}
}

func TestExhaustiveMatchesExpectedEnergy(t *testing.T) {
	// Replay-based expected energy must equal the closed-form
	// Schedule.ExpectedEnergy (energy is timing-independent).
	for seed := int64(0); seed < 15; seed++ {
		cat := tgff.ForkJoin
		if seed%2 == 1 {
			cat = tgff.Flat
		}
		g, p, err := tgff.Generate(tgff.Config{
			Seed: seed, Nodes: 16, PEs: 3, Branches: 2, Category: cat,
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
		if _, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{}); err != nil {
			t.Fatal(err)
		}
		sum, err := Exhaustive(s, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := s.ExpectedEnergy()
		if math.Abs(sum.ExpectedEnergy-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("seed %d: replay expected energy %v, closed form %v",
				seed, sum.ExpectedEnergy, want)
		}
	}
}

func TestStretchedSchedulesMeetDeadlineInEveryScenario(t *testing.T) {
	// The central soundness property: after heuristic stretching against a
	// tightened deadline, replay meets the deadline in every scenario.
	for seed := int64(0); seed < 40; seed++ {
		cat := tgff.ForkJoin
		if seed%2 == 1 {
			cat = tgff.Flat
		}
		g, p, err := tgff.Generate(tgff.Config{
			Seed: 700 + seed, Nodes: 14 + int(seed%10), PEs: 2 + int(seed%3),
			Branches: int(seed % 4), Category: cat,
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
		for _, name := range []string{"heuristic", "worstcase", "nlp"} {
			s, err := sched.DLS(a2, p, sched.Modified())
			if err != nil {
				t.Fatal(err)
			}
			switch name {
			case "heuristic":
				_, err = stretch.Heuristic(s, platform.Continuous(), stretch.Options{})
			case "worstcase":
				_, err = stretch.WorstCase(s, platform.Continuous())
			case "nlp":
				_, err = stretch.NLP(s, platform.Continuous(), stretch.NLPOptions{MaxIters: 250})
			}
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			sum, err := Exhaustive(s, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Misses > 0 {
				t.Fatalf("seed %d %s: %d scenario deadline misses (worst %v > %v)",
					seed, name, sum.Misses, sum.WorstMakespan, g2.Deadline())
			}
		}
	}
}

func TestSampleConvergesToExhaustive(t *testing.T) {
	g, p, err := tgff.Generate(tgff.Config{Seed: 31, Nodes: 18, PEs: 3, Branches: 3})
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
	if _, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{}); err != nil {
		t.Fatal(err)
	}
	exact, err := Exhaustive(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := Sample(s, rand.New(rand.NewSource(1)), 4000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if relErr := math.Abs(est.ExpectedEnergy-exact.ExpectedEnergy) / exact.ExpectedEnergy; relErr > 0.05 {
		t.Fatalf("sampled energy %v vs exact %v (rel err %v)", est.ExpectedEnergy, exact.ExpectedEnergy, relErr)
	}
	if relErr := math.Abs(est.ExpectedMakespan-exact.ExpectedMakespan) / exact.ExpectedMakespan; relErr > 0.05 {
		t.Fatalf("sampled makespan %v vs exact %v", est.ExpectedMakespan, exact.ExpectedMakespan)
	}
	if est.WorstMakespan > exact.WorstMakespan+1e-9 {
		t.Fatal("sampled worst makespan exceeds the exhaustive worst case")
	}
	if est.Misses != 0 {
		t.Fatalf("sampling found %d misses on a feasible schedule", est.Misses)
	}
	if _, err := Sample(s, rand.New(rand.NewSource(1)), 0, Config{}); err == nil {
		t.Fatal("want error for non-positive sample size")
	}
}
