package stretch

import (
	"math"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/tgff"
)

// heuristicPtr runs the plain Heuristic in the pointer-returning shape of
// the baseline stretchers (WorstCase, NLP), so tests can table all three.
func heuristicPtr(s *sched.Schedule) (*Result, error) {
	r, err := Heuristic(s, platform.Continuous(), Options{})
	return &r, err
}

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

// scheduleChain builds t0->t1->t2 with zero comm on one PE, deadline 60.
func scheduleChain(t *testing.T) *sched.Schedule {
	t.Helper()
	b := ctg.NewBuilder()
	t0 := b.AddTask("", ctg.AndNode)
	t1 := b.AddTask("", ctg.AndNode)
	t2 := b.AddTask("", ctg.AndNode)
	b.AddEdge(t0, t1, 0)
	b.AddEdge(t1, t2, 0)
	g, err := b.Build(60)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	p := uniformPlatform(t, 3, 1, 10, 4)
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHeuristicChainHandComputed(t *testing.T) {
	s := scheduleChain(t)
	res, err := Heuristic(s, platform.Continuous(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Ratio distribution with locked tasks released from the denominator,
	// in order t0, t1, t2:
	// t0: slack 30, distributable 30 → share 10 → speed 0.5; delay 40.
	// t1: slack 20, distributable 20 (t0 locked) → share 10 → 0.5; delay 50.
	// t2: slack 10, distributable 10 → share 10 → speed 0.5; delay 60.
	// This is the energy-optimal uniform scaling for a chain.
	for i := 0; i < 3; i++ {
		if math.Abs(s.Speed[i]-0.5) > 1e-9 {
			t.Fatalf("speed[%d] = %v, want 0.5", i, s.Speed[i])
		}
	}
	if math.Abs(res.WorstDelay-60) > 1e-9 {
		t.Fatalf("WorstDelay = %v, want 60", res.WorstDelay)
	}
	if res.Stretched != 3 {
		t.Fatalf("Stretched = %d, want 3", res.Stretched)
	}
	// Energy: 3 tasks × 4 × 0.5².
	if math.Abs(res.ExpectedEnergy-3) > 1e-9 {
		t.Fatalf("ExpectedEnergy = %v, want 3", res.ExpectedEnergy)
	}
}

func TestNLPBeatsHeuristicOnChain(t *testing.T) {
	sH := scheduleChain(t)
	if _, err := Heuristic(sH, platform.Continuous(), Options{}); err != nil {
		t.Fatal(err)
	}
	sN := scheduleChain(t)
	resN, err := NLP(sN, platform.Continuous(), NLPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The symmetric optimum stretches every task to t=20 (speed 0.5).
	for i := 0; i < 3; i++ {
		if math.Abs(sN.Speed[i]-0.5) > 0.03 {
			t.Fatalf("NLP speed[%d] = %v, want ≈0.5", i, sN.Speed[i])
		}
	}
	if resN.WorstDelay > 60+1e-6 {
		t.Fatalf("NLP violated deadline: %v", resN.WorstDelay)
	}
	// On a plain chain the heuristic already reaches the uniform optimum,
	// so NLP matches it up to numerical tolerance.
	if resN.ExpectedEnergy > sH.ExpectedEnergy()*1.01 {
		t.Fatalf("NLP energy %v clearly worse than heuristic %v",
			resN.ExpectedEnergy, sH.ExpectedEnergy())
	}
}

// forkSchedule builds fork → {likely arm a, unlikely arm b} → join on a
// single PE with plenty of slack.
func forkSchedule(t *testing.T, pA float64) *sched.Schedule {
	t.Helper()
	b := ctg.NewBuilder()
	f := b.AddTask("fork", ctg.AndNode)
	a1 := b.AddTask("likely", ctg.AndNode)
	b1 := b.AddTask("unlikely", ctg.AndNode)
	j := b.AddTask("join", ctg.OrNode)
	b.AddCondEdge(f, a1, 0, 0)
	b.AddCondEdge(f, b1, 0, 1)
	b.AddEdge(a1, j, 0)
	b.AddEdge(b1, j, 0)
	b.SetBranchProbs(f, []float64{pA, 1 - pA})
	g, err := b.Build(90) // nominal makespan 30 → slack 60
	if err != nil {
		t.Fatal(err)
	}
	an, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	p := uniformPlatform(t, 4, 1, 10, 4)
	s, err := sched.DLS(an, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHeuristicFavorsLikelyBranch(t *testing.T) {
	s := forkSchedule(t, 0.9)
	if _, err := Heuristic(s, platform.Continuous(), Options{}); err != nil {
		t.Fatal(err)
	}
	// Task 1 (prob 0.9) must be stretched more (lower speed) than task 2
	// (prob 0.1).
	if !(s.Speed[1] < s.Speed[2]) {
		t.Fatalf("likely arm speed %v not below unlikely arm speed %v",
			s.Speed[1], s.Speed[2])
	}
	// Both conditional-arm tasks must receive some slack at all (the
	// interpretation fix for Figure 2 step 5).
	if s.Speed[1] >= 1 || s.Speed[2] >= 1 {
		t.Fatalf("conditional arm tasks unstretched: %v", s.Speed)
	}
}

func TestWorstCaseIgnoresProbabilities(t *testing.T) {
	s := forkSchedule(t, 0.9)
	if _, err := WorstCase(s, platform.Continuous()); err != nil {
		t.Fatal(err)
	}
	// Same wcet, same path structure → same slack share regardless of
	// branch probability... except processing order: the first-processed
	// arm eats slack. Both arms lie on disjoint paths though, so shares
	// are symmetric here.
	if math.Abs(s.Speed[1]-s.Speed[2]) > 1e-9 {
		t.Fatalf("worst-case stretcher differentiated arms: %v vs %v",
			s.Speed[1], s.Speed[2])
	}
}

func TestDeadlinePreservedOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		cat := tgff.ForkJoin
		if seed%2 == 1 {
			cat = tgff.Flat
		}
		g, p, err := tgff.Generate(tgff.Config{
			Seed: seed, Nodes: 14 + int(seed%8), PEs: 2 + int(seed%3),
			Branches: int(seed % 4), Category: cat,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := ctg.Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		// Tighten the deadline to 1.6× the DLS makespan so stretching has
		// real constraints.
		s0, err := sched.DLS(a, p, sched.Modified())
		if err != nil {
			t.Fatal(err)
		}
		g2, err := g.WithDeadline(1.6 * s0.Makespan)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := ctg.Analyze(g2)
		if err != nil {
			t.Fatal(err)
		}

		type stretcher struct {
			name string
			run  func(*sched.Schedule) (*Result, error)
		}
		stretchers := []stretcher{
			{"heuristic", func(s *sched.Schedule) (*Result, error) {
				return heuristicPtr(s)
			}},
			{"worstcase", func(s *sched.Schedule) (*Result, error) {
				return WorstCase(s, platform.Continuous())
			}},
			{"nlp", func(s *sched.Schedule) (*Result, error) {
				return NLP(s, platform.Continuous(), NLPOptions{MaxIters: 300})
			}},
		}
		for _, st := range stretchers {
			s, err := sched.DLS(a2, p, sched.Modified())
			if err != nil {
				t.Fatal(err)
			}
			nominal := s.ExpectedEnergy()
			res, err := st.run(s)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, st.name, err)
			}
			if res.WorstDelay > g2.Deadline()+1e-6 {
				t.Fatalf("seed %d %s: worst path delay %v exceeds deadline %v",
					seed, st.name, res.WorstDelay, g2.Deadline())
			}
			for task, sp := range s.Speed {
				if !(sp > 0) || sp > 1 {
					t.Fatalf("seed %d %s: task %d speed %v out of range", seed, st.name, task, sp)
				}
			}
			if res.ExpectedEnergy > nominal+1e-9 {
				t.Fatalf("seed %d %s: stretching increased energy %v > %v",
					seed, st.name, res.ExpectedEnergy, nominal)
			}
		}
	}
}

// expectedEnergyUnder evaluates a stretched schedule's expected energy
// against an *independent* probability model (the "true" distribution),
// which is how the non-adaptive algorithm's misprofiled schedules are scored
// in the paper's Tables 4/5.
func expectedEnergyUnder(s *sched.Schedule, truth *ctg.Analysis) float64 {
	sum := 0.0
	for task := 0; task < s.G.NumTasks(); task++ {
		sum += truth.ActivationProb(ctg.TaskID(task)) * s.TaskEnergy(ctg.TaskID(task))
	}
	for ei, e := range s.G.Edges() {
		if ce := s.CommEnergy(ei); ce > 0 {
			both := truth.ActivationSet(e.From).Clone()
			both.IntersectWith(truth.ActivationSet(e.To))
			sum += truth.ProbOfSet(both) * ce
		}
	}
	return sum
}

func TestAccurateProbsBeatWrongProbsOnAverage(t *testing.T) {
	// The core adaptive-framework premise: scheduling+stretching with the
	// true branch probabilities yields lower true expected energy than the
	// same pipeline driven by inverted (wrong) probabilities.
	var accSum, wrongSum float64
	for seed := int64(0); seed < 20; seed++ {
		g, p, err := tgff.Generate(tgff.Config{
			Seed: 100 + seed, Nodes: 20, PEs: 3, Branches: 3,
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
		g2, err := g.WithDeadline(1.4 * s0.Makespan)
		if err != nil {
			t.Fatal(err)
		}
		// Skew the true distribution so being wrong hurts.
		for _, f := range g2.Forks() {
			if err := g2.SetBranchProbs(f, []float64{0.9, 0.1}); err != nil {
				t.Fatal(err)
			}
		}
		truth, err := ctg.Analyze(g2)
		if err != nil {
			t.Fatal(err)
		}
		sAcc, err := sched.DLS(truth, p, sched.Modified())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Heuristic(sAcc, platform.Continuous(), Options{}); err != nil {
			t.Fatal(err)
		}
		accSum += expectedEnergyUnder(sAcc, truth)

		gWrong := g2.Clone()
		for _, f := range gWrong.Forks() {
			if err := gWrong.SetBranchProbs(f, []float64{0.1, 0.9}); err != nil {
				t.Fatal(err)
			}
		}
		aWrong, err := ctg.Analyze(gWrong)
		if err != nil {
			t.Fatal(err)
		}
		sWrong, err := sched.DLS(aWrong, p, sched.Modified())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Heuristic(sWrong, platform.Continuous(), Options{}); err != nil {
			t.Fatal(err)
		}
		wrongSum += expectedEnergyUnder(sWrong, truth)
	}
	if accSum >= wrongSum {
		t.Fatalf("accurate-probability pipeline (%v) not better than misprofiled one (%v)",
			accSum, wrongSum)
	}
}

func TestNLPAtLeastAsGoodOnAverage(t *testing.T) {
	var hSum, nSum float64
	for seed := int64(0); seed < 10; seed++ {
		g, p, err := tgff.Generate(tgff.Config{
			Seed: 300 + seed, Nodes: 16, PEs: 3, Branches: 2,
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
		g2, err := g.WithDeadline(1.5 * s0.Makespan)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := ctg.Analyze(g2)
		if err != nil {
			t.Fatal(err)
		}
		sH, err := sched.DLS(a2, p, sched.Modified())
		if err != nil {
			t.Fatal(err)
		}
		resH, err := Heuristic(sH, platform.Continuous(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		sN, err := sched.DLS(a2, p, sched.Modified())
		if err != nil {
			t.Fatal(err)
		}
		resN, err := NLP(sN, platform.Continuous(), NLPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hSum += resH.ExpectedEnergy
		nSum += resN.ExpectedEnergy
	}
	if nSum > hSum*1.02 {
		t.Fatalf("NLP average energy %v clearly worse than heuristic %v", nSum, hSum)
	}
}

func TestNLPInfeasibleDeadlineKeepsFullSpeed(t *testing.T) {
	b := ctg.NewBuilder()
	t0 := b.AddTask("", ctg.AndNode)
	t1 := b.AddTask("", ctg.AndNode)
	b.AddEdge(t0, t1, 0)
	g, err := b.Build(5) // two 10-unit tasks cannot meet 5
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	p := uniformPlatform(t, 2, 1, 10, 1)
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return NLP(s, platform.Continuous(), NLPOptions{MaxIters: 200}) },
		func() (*Result, error) { return heuristicPtr(s) },
		func() (*Result, error) { return WorstCase(s, platform.Continuous()) },
	} {
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		if s.Speed[0] != 1 || s.Speed[1] != 1 {
			t.Fatalf("infeasible deadline still stretched: %v", s.Speed)
		}
	}
}

func TestHeuristicWithDiscreteLevels(t *testing.T) {
	s := scheduleChain(t)
	res, err := Heuristic(s, platform.Discrete(0.25, 0.5, 0.75, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Continuous speeds are 0.5 everywhere, which is an exact level.
	for i := 0; i < 3; i++ {
		if s.Speed[i] != 0.5 {
			t.Fatalf("discrete speed[%d] = %v, want 0.5", i, s.Speed[i])
		}
	}
	// With a coarser level set, every assigned speed is an exact level and
	// the deadline still holds (rounding is always upward).
	s2 := scheduleChain(t)
	res2, err := Heuristic(s2, platform.Discrete(0.4, 0.7, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if sp := s2.Speed[i]; sp != 0.4 && sp != 0.7 && sp != 1 {
			t.Fatalf("coarse discrete speed[%d] = %v, not a level", i, sp)
		}
	}
	if res2.WorstDelay > 60 {
		t.Fatalf("coarse discrete stretching violated deadline: %v", res2.WorstDelay)
	}
	if res.WorstDelay > 60 {
		t.Fatalf("discrete stretching violated deadline: %v", res.WorstDelay)
	}
}

func TestHeuristicInvalidDVFS(t *testing.T) {
	s := scheduleChain(t)
	bad := platform.DVFS{MinSpeed: -2}
	if _, err := Heuristic(s, bad, Options{}); err == nil {
		t.Fatal("want error for invalid DVFS model")
	}
	if _, err := WorstCase(s, bad); err == nil {
		t.Fatal("want error for invalid DVFS model")
	}
	if _, err := NLP(s, bad, NLPOptions{}); err == nil {
		t.Fatal("want error for invalid DVFS model")
	}
}
