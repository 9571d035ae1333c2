package ctgdvfs_test

import (
	"path/filepath"
	"testing"

	"ctgdvfs"
)

func TestFacadeWorkloadIO(t *testing.T) {
	g, p, err := ctgdvfs.GenerateRandom(ctgdvfs.RandomConfig{
		Seed: 21, Nodes: 16, PEs: 3, Branches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.ctg")
	if err := ctgdvfs.SaveWorkload(path, g, p); err != nil {
		t.Fatal(err)
	}
	g2, p2, err := ctgdvfs.LoadWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumTasks() != g.NumTasks() || p2.NumPEs() != p.NumPEs() {
		t.Fatal("round-trip changed workload dimensions")
	}
	// The loaded workload schedules identically (same expected energy).
	s1, err := ctgdvfs.Plan(g, p)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ctgdvfs.Plan(g2, p2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.ExpectedEnergy() != s2.ExpectedEnergy() {
		t.Fatalf("energies diverge after round trip: %v vs %v",
			s1.ExpectedEnergy(), s2.ExpectedEnergy())
	}
}

func TestFacadeSimConfig(t *testing.T) {
	g, p, err := ctgdvfs.BuildMPEG()
	if err != nil {
		t.Fatal(err)
	}
	g, err = ctgdvfs.TightenDeadline(g, p, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ctgdvfs.Plan(g, p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ctgdvfs.Exhaustive(s, ctgdvfs.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := ctgdvfs.Exhaustive(s, ctgdvfs.SimConfig{StrictOrDeps: true})
	if err != nil {
		t.Fatal(err)
	}
	if strict.ExpectedMakespan < base.ExpectedMakespan-1e-9 {
		t.Fatal("strict or-deps must never finish earlier")
	}
	if strict.Misses != 0 {
		t.Fatalf("strict mode missed %d deadlines", strict.Misses)
	}
	over, err := ctgdvfs.Replay(s, 0, ctgdvfs.SimConfig{SwitchTime: 1, SwitchEnergy: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ctgdvfs.Replay(s, 0, ctgdvfs.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !(over.Energy > plain.Energy) || !(over.Makespan >= plain.Makespan) {
		t.Fatal("switch overhead must cost energy and time")
	}
}

// TestThreeWayForkPipeline drives the whole stack with a non-binary fork —
// the model supports k outcomes everywhere even though the paper's
// benchmarks are binary.
func TestThreeWayForkPipeline(t *testing.T) {
	b := ctgdvfs.NewGraph()
	src := b.AddTask("src", ctgdvfs.AndNode)
	fork := b.AddTask("modeselect", ctgdvfs.AndNode)
	low := b.AddTask("low", ctgdvfs.AndNode)
	mid := b.AddTask("mid", ctgdvfs.AndNode)
	high := b.AddTask("high", ctgdvfs.AndNode)
	join := b.AddTask("join", ctgdvfs.OrNode)
	sink := b.AddTask("sink", ctgdvfs.AndNode)
	b.AddEdge(src, fork, 1)
	b.AddCondEdge(fork, low, 1, 0)
	b.AddCondEdge(fork, mid, 1, 1)
	b.AddCondEdge(fork, high, 1, 2)
	b.AddEdge(low, join, 1)
	b.AddEdge(mid, join, 1)
	b.AddEdge(high, join, 1)
	b.AddEdge(join, sink, 1)
	b.SetBranchProbs(fork, []float64{0.5, 0.3, 0.2})
	g, err := b.Build(200)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ctgdvfs.NewPlatform(7, 2).
		SetUniformTask(0, 4, 4).SetUniformTask(1, 2, 2).
		SetUniformTask(2, 5, 5).SetUniformTask(3, 10, 10).
		SetUniformTask(4, 20, 20).SetUniformTask(5, 2, 2).
		SetUniformTask(6, 4, 4).SetAllLinks(4, 0.05).Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctgdvfs.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumScenarios() != 3 {
		t.Fatalf("scenarios = %d, want 3", a.NumScenarios())
	}
	if !a.MutuallyExclusive(low, high) || !a.MutuallyExclusive(low, mid) {
		t.Fatal("three-way arms must be pairwise exclusive")
	}
	s, err := ctgdvfs.Plan(g, p)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ctgdvfs.Exhaustive(s, ctgdvfs.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Misses != 0 {
		t.Fatalf("three-way fork: %d misses", sum.Misses)
	}

	// Adaptive loop with three outcomes: drift toward outcome 2.
	mgr, err := ctgdvfs.NewAdaptive(g, p, ctgdvfs.AdaptiveOptions{Window: 12, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	vec := make(ctgdvfs.Vectors, 150)
	for i := range vec {
		out := 2
		if i%8 == 0 {
			out = 0
		}
		vec[i] = []int{out}
	}
	st, err := mgr.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Calls == 0 {
		t.Fatal("no adaptation on a three-way drift")
	}
	if st.Misses != 0 {
		t.Fatalf("three-way adaptive run missed %d deadlines", st.Misses)
	}
	// The estimate must have converged toward outcome 2.
	probs := mgr.Probs(0)
	if probs[2] < 0.5 {
		t.Fatalf("adaptive probs %v did not follow the three-way drift", probs)
	}
}
